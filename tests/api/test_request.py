"""Tests for the typed request layer: builder, validation, resolution."""

import dataclasses

import pytest

from repro.api import (
    CampaignLimits,
    EngineSpec,
    PolicySpec,
    RequestError,
    VerificationRequest,
    build_policy,
    parse_topology,
    policy_names,
    with_engine,
)


class TestBuilder:
    def test_fluent_chain_builds_a_frozen_request(self):
        request = (VerificationRequest.builder("prove")
                   .policy("balance_count", margin=3)
                   .scope(cores=4, max_load=2)
                   .pool(jobs=2)
                   .build())
        assert request.kind == "prove"
        assert request.policy == PolicySpec(name="balance_count", margin=3)
        assert request.cores == 4 and request.max_load == 2
        assert request.engine == EngineSpec(kind="pool", jobs=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.kind = "hunt"

    def test_every_setter_returns_the_builder(self):
        builder = VerificationRequest.builder("hunt")
        assert builder.policy("naive") is builder
        assert builder.scope(cores=3) is builder
        assert builder.topology(None) is builder
        assert builder.symmetric(False) is builder
        assert builder.no_symmetry(False) is builder
        assert builder.choice_mode("all") is builder
        assert builder.max_orders(720) is builder
        assert builder.serial() is builder

    def test_distributed_builder_variants(self):
        spawned = (VerificationRequest.builder("prove")
                   .policy("balance_count").distributed(2).build())
        assert spawned.engine.workers == 2
        connected = (VerificationRequest.builder("prove")
                     .policy("balance_count")
                     .distributed(endpoints=["h:1", "h:2"]).build())
        assert connected.engine.endpoints == ("h:1", "h:2")
        in_proc = (VerificationRequest.builder("prove")
                   .policy("balance_count")
                   .distributed(2, in_process=True).build())
        assert in_proc.engine.in_process

    def test_campaign_builder(self):
        request = (VerificationRequest.builder("campaign")
                   .policy("naive", seed=7)
                   .campaign(machines=10, rounds=5, seed=7)
                   .build())
        assert request.campaign == CampaignLimits(machines=10, rounds=5,
                                                  seed=7)
        config = request.campaign_config()
        assert config.n_machines == 10
        assert config.max_cores == 12  # the unset default
        assert config.seed == 7

    def test_with_engine_swaps_only_the_engine(self):
        base = (VerificationRequest.builder("prove")
                .policy("balance_count").build())
        swapped = with_engine(base, EngineSpec(kind="pool", jobs=4))
        assert swapped.engine.jobs == 4
        assert swapped.policy == base.policy
        assert base.engine == EngineSpec()  # original untouched


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(RequestError, match="unknown request kind"):
            VerificationRequest(kind="frobnicate")

    def test_unknown_policy_lists_the_registry(self):
        with pytest.raises(RequestError,
                           match="unknown policy 'nope'; try: balance_count"):
            VerificationRequest.builder("prove").policy("nope").build()

    def test_prove_needs_a_policy(self):
        with pytest.raises(RequestError, match="needs a policy"):
            VerificationRequest(kind="prove")

    def test_zoo_rejects_a_policy(self):
        with pytest.raises(RequestError, match="whole lineup"):
            (VerificationRequest.builder("zoo")
             .policy("balance_count").build())

    def test_prove_hierarchical_redirects_to_hunt(self):
        with pytest.raises(RequestError, match="hunt hierarchical"):
            (VerificationRequest.builder("prove")
             .policy("hierarchical").build())

    def test_campaign_limits_only_on_campaigns(self):
        with pytest.raises(RequestError, match="campaign limits"):
            VerificationRequest(
                kind="prove",
                policy=PolicySpec(name="balance_count"),
                campaign=CampaignLimits(),
            )

    def test_topology_policy_without_layout(self):
        with pytest.raises(RequestError, match="--topology"):
            VerificationRequest.builder("prove").policy("numa_choice").build()

    def test_symmetric_conflicts_with_topology(self):
        with pytest.raises(RequestError, match="conflicts"):
            (VerificationRequest.builder("prove")
             .policy("balance_count").topology("numa:2x2")
             .symmetric().build())

    def test_cores_conflicts_with_topology(self):
        with pytest.raises(RequestError, match="--cores 8 conflicts"):
            (VerificationRequest.builder("prove")
             .policy("balance_count").topology("numa:2x2")
             .scope(cores=8).build())

    def test_no_symmetry_conflicts_with_symmetric(self):
        with pytest.raises(RequestError, match="pick one"):
            (VerificationRequest.builder("prove")
             .policy("balance_count").symmetric().no_symmetry().build())

    def test_oversized_campaign_max_cores_conflicts_with_topology(self):
        with pytest.raises(RequestError, match="--max-cores 12 conflicts"):
            (VerificationRequest.builder("campaign")
             .policy("numa_choice").topology("numa:2x2")
             .campaign(machines=5, max_cores=12).build())

    def test_bad_topology_spec(self):
        with pytest.raises(RequestError, match="bad --topology"):
            (VerificationRequest.builder("prove")
             .policy("balance_count").topology("numa:2").build())

    def test_bad_choice_mode(self):
        with pytest.raises(RequestError, match="choice_mode"):
            (VerificationRequest.builder("prove")
             .policy("balance_count").choice_mode("some").build())

    def test_hierarchical_hunt_needs_topology(self):
        with pytest.raises(RequestError, match="machine layout"):
            VerificationRequest.builder("hunt").policy("hierarchical").build()


class TestEngineSpec:
    def test_serial_is_the_default(self):
        assert EngineSpec().kind == "serial"

    def test_unknown_kind(self):
        with pytest.raises(RequestError, match="unknown engine kind"):
            EngineSpec(kind="quantum")

    def test_distributed_needs_workers_xor_endpoints(self):
        with pytest.raises(RequestError, match="exactly one"):
            EngineSpec(kind="distributed")
        with pytest.raises(RequestError, match="exactly one"):
            EngineSpec(kind="distributed", workers=2, endpoints=("h:1",))

    def test_distributed_worker_count_positive(self):
        with pytest.raises(RequestError, match=">= 1"):
            EngineSpec(kind="distributed", workers=0)

    def test_in_process_requires_spawned_workers(self):
        with pytest.raises(RequestError, match="in_process"):
            EngineSpec(kind="distributed", endpoints=("h:1",),
                       in_process=True)

    def test_serial_rejects_distributed_fields(self):
        with pytest.raises(RequestError, match="only apply"):
            EngineSpec(kind="serial", workers=2)

    def test_jobs_cannot_combine_with_distributed(self):
        # Mirrors the CLI's --jobs/--distributed conflict: never
        # silently dropped.
        with pytest.raises(RequestError, match="pick one engine"):
            EngineSpec(kind="distributed", workers=4, jobs=8)

    def test_serial_rejects_jobs(self):
        with pytest.raises(RequestError, match="exactly one worker"):
            EngineSpec(kind="serial", jobs=2)

    def test_describe(self):
        assert EngineSpec().describe() == "serial"
        assert "jobs=3" in EngineSpec(kind="pool", jobs=3).describe()
        assert "in-process" in EngineSpec(
            kind="distributed", workers=2, in_process=True
        ).describe()
        assert "h:1" in EngineSpec(kind="distributed",
                                   endpoints=("h:1",)).describe()


class TestResolution:
    def test_defaults_mirror_the_cli(self):
        prove = (VerificationRequest.builder("prove")
                 .policy("balance_count").build())
        assert prove.effective_max_load == 3
        hunt = VerificationRequest.builder("hunt").policy("naive").build()
        assert hunt.effective_max_load == 2
        campaign = (VerificationRequest.builder("campaign")
                    .policy("naive").build())
        assert campaign.effective_max_load == 8
        zoo = VerificationRequest.builder("zoo").build()
        assert zoo.effective_max_orders == 720  # the historical zoo cap
        assert prove.effective_max_orders == 5040

    def test_topology_fixes_the_scope_width(self):
        request = (VerificationRequest.builder("prove")
                   .policy("numa_choice").topology("numa:2x3").build())
        resolved = request.resolve()
        assert resolved.scope.n_cores == 6
        assert resolved.topology is not None
        assert not resolved.symmetry.is_trivial  # the NUMA quotient

    def test_no_symmetry_disables_the_quotient(self):
        request = (VerificationRequest.builder("prove")
                   .policy("numa_choice").topology("numa:2x2")
                   .no_symmetry().build())
        assert request.resolve().symmetry.is_trivial

    def test_symmetric_resolves_to_the_flat_group(self):
        from repro.verify.symmetry import FlatSymmetryGroup

        builder = VerificationRequest.builder("hunt").policy("naive")
        assert builder.build().resolve().symmetry.is_trivial
        flat = builder.symmetric().build().resolve().symmetry
        assert flat == FlatSymmetryGroup()

    def test_hierarchical_hunt_resolves_a_hierarchy(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("hierarchical", margin=2)
                   .topology("numa:2x2").build())
        resolved = request.resolve()
        assert resolved.hierarchy is not None
        assert resolved.policy is None
        assert not resolved.symmetry.is_trivial

    def test_campaign_topology_caps_machine_size(self):
        request = (VerificationRequest.builder("campaign")
                   .policy("numa_choice").topology("numa:2x2")
                   .campaign(machines=5).build())
        assert request.campaign_config().max_cores == 4

    def test_policy_factory_builds_fresh_instances(self):
        request = (VerificationRequest.builder("campaign")
                   .policy("random_steal", seed=3).build())
        factory = request.policy_factory()
        assert factory() is not factory()
        assert factory().name == factory().name

    def test_describe_names_kind_policy_engine(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("naive").pool(jobs=2).build())
        assert request.describe() == "hunt naive engine=pool[jobs=2]"
        zoo = VerificationRequest.builder("zoo").topology("numa:2x2").build()
        assert zoo.describe() == "zoo topology=numa:2x2 engine=serial"


class TestRegistryHelpers:
    def test_policy_names_cover_the_cli_registry(self):
        names = policy_names()
        assert "balance_count" in names
        assert "numa_choice" in names
        assert len(names) == 12

    def test_build_policy_respects_margin(self):
        policy = build_policy(PolicySpec(name="balance_count", margin=3))
        assert "margin=3" in policy.name

    def test_parse_topology_flat_is_none(self):
        assert parse_topology("flat") is None
        assert parse_topology("numa:2x2").n_cores == 4
        assert parse_topology("mesh:2x1").n_cores == 4
