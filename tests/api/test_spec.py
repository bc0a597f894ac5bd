"""Tests for declarative spec files: parsing, defaults, execution."""

import json
import pathlib

import pytest

from repro.api import (
    SpecError,
    load_spec,
    parse_spec,
    run_spec,
)

SPECS_DIR = (pathlib.Path(__file__).resolve().parents[2]
             / "examples" / "specs")

MINIMAL = {
    "spec_version": 1,
    "name": "minimal",
    "runs": [
        {"name": "hunt-clean", "kind": "hunt", "policy": "balance_count"},
    ],
}


class TestParsing:
    def test_minimal_spec(self):
        spec = parse_spec(MINIMAL)
        assert spec.name == "minimal"
        assert [run.name for run in spec.runs] == ["hunt-clean"]
        assert spec.runs[0].request.kind == "hunt"

    def test_defaults_merge_one_level_deep(self):
        spec = parse_spec({
            "runs": [
                {"kind": "prove", "policy": "balance_count",
                 "scope": {"max_load": 2}},
            ],
            "defaults": {
                "scope": {"cores": 4, "max_load": 3},
                "engine": {"kind": "pool", "jobs": 2},
            },
        })
        request = spec.runs[0].request
        assert request.cores == 4          # inherited
        assert request.max_load == 2       # overridden
        assert request.engine.jobs == 2    # inherited wholesale

    def test_run_names_default_from_kind_and_policy(self):
        spec = parse_spec({"runs": [
            {"kind": "hunt", "policy": "naive"},
            {"kind": "zoo"},
        ]})
        assert [r.name for r in spec.runs] == ["run1-hunt-naive",
                                               "run2-zoo-zoo"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecError, match="duplicate run name"):
            parse_spec({"runs": [
                {"name": "x", "kind": "hunt", "policy": "naive"},
                {"name": "x", "kind": "hunt", "policy": "naive"},
            ]})

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown spec key"):
            parse_spec({**MINIMAL, "runz": []})

    def test_empty_runs_rejected(self):
        with pytest.raises(SpecError, match="non-empty 'runs'"):
            parse_spec({"runs": []})

    def test_kind_cannot_be_defaulted(self):
        with pytest.raises(SpecError, match="'kind' cannot be defaulted"):
            parse_spec({"defaults": {"kind": "hunt"}, "runs": [{}]})

    def test_invalid_run_names_the_culprit(self):
        with pytest.raises(SpecError,
                           match="invalid run 'bad'.*unknown policy"):
            parse_spec({"runs": [
                {"name": "bad", "kind": "hunt", "policy": "nope"},
            ]})

    def test_unsupported_version(self):
        with pytest.raises(SpecError, match="unsupported spec_version"):
            parse_spec({**MINIMAL, "spec_version": 99})

    def test_validation_is_eager(self):
        # The broken *last* run fails the load before anything runs.
        with pytest.raises(SpecError, match="invalid run"):
            parse_spec({"runs": [
                {"kind": "hunt", "policy": "balance_count"},
                {"kind": "prove", "policy": "hierarchical"},
            ]})


class TestLoading:
    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MINIMAL))
        spec = load_spec(str(path))
        assert spec.path == str(path)
        assert spec.name == "minimal"

    def test_missing_file(self):
        with pytest.raises(SpecError, match="cannot read spec"):
            load_spec("/does/not/exist.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_spec(str(path))

    def test_deeply_nested_json_is_a_spec_error(self, tmp_path):
        # Past the JSON parser's recursion limit: a one-line SpecError,
        # never a RecursionError traceback.
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        with pytest.raises(SpecError, match="not valid JSON"):
            load_spec(str(path))


class TestExecution:
    def test_runs_execute_in_order(self):
        spec = parse_spec({"runs": [
            {"name": "clean", "kind": "hunt", "policy": "balance_count"},
            {"name": "dirty", "kind": "hunt", "policy": "naive"},
        ]})
        outcomes = run_spec(spec)
        assert [run.name for run, _ in outcomes] == ["clean", "dirty"]
        assert outcomes[0][1].ok and not outcomes[1][1].ok

    def test_only_selects_one_run(self):
        spec = parse_spec({"runs": [
            {"name": "clean", "kind": "hunt", "policy": "balance_count"},
            {"name": "dirty", "kind": "hunt", "policy": "naive"},
        ]})
        outcomes = run_spec(spec, only="dirty")
        assert len(outcomes) == 1
        assert outcomes[0][0].name == "dirty"

    def test_only_unknown_name(self):
        spec = parse_spec(MINIMAL)
        with pytest.raises(SpecError, match="no run named 'nope'"):
            run_spec(spec, only="nope")

    def test_subscribers_attach_to_a_provided_session(self):
        from repro.api import RequestFinished, Session

        events = []
        run_spec(parse_spec(MINIMAL), session=Session(),
                 subscribers=(events.append,))
        assert any(isinstance(e, RequestFinished) for e in events)


class TestMatrixStanza:
    BASE = {
        "spec_version": 1,
        "name": "matrix",
        "runs": [
            {"name": "sweep", "kind": "prove",
             "matrix": {
                 "policy": [{"name": "balance_count", "margin": 1},
                            "greedy_halving"],
                 "scope": [{"cores": 3, "max_load": 2},
                           {"cores": 3, "max_load": 3}],
             }},
        ],
    }

    def test_expands_the_cartesian_product(self):
        spec = parse_spec(self.BASE)
        assert len(spec.runs) == 4
        assert [run.name for run in spec.runs] == [
            "sweep-balance_count-margin1-cores3-max_load2",
            "sweep-balance_count-margin1-cores3-max_load3",
            "sweep-greedy_halving-cores3-max_load2",
            "sweep-greedy_halving-cores3-max_load3",
        ]
        assert spec.runs[0].request.policy.margin == 1
        assert spec.runs[0].request.max_load == 2
        assert spec.runs[3].request.policy.name == "greedy_halving"
        assert spec.runs[3].request.max_load == 3

    def test_expansion_is_deterministic(self):
        first = parse_spec(self.BASE)
        second = parse_spec(json.loads(json.dumps(self.BASE)))
        assert [r.name for r in first.runs] == [r.name
                                                for r in second.runs]
        assert [r.request for r in first.runs] == [r.request
                                                   for r in second.runs]

    def test_defaults_merge_under_expanded_runs(self):
        document = dict(self.BASE)
        document["defaults"] = {"engine": {"kind": "pool", "jobs": 2}}
        spec = parse_spec(document)
        assert all(run.request.engine.jobs == 2 for run in spec.runs)

    def test_generated_name_defaults_to_the_position(self):
        document = {
            "spec_version": 1,
            "runs": [{"kind": "hunt",
                      "matrix": {"policy": ["naive", "greedy_ready"]}}],
        }
        spec = parse_spec(document)
        assert [run.name for run in spec.runs] == [
            "run1-naive", "run1-greedy_ready",
        ]

    def test_matrix_mixes_with_plain_runs(self):
        document = {
            "spec_version": 1,
            "runs": [
                {"name": "plain", "kind": "hunt",
                 "policy": "balance_count"},
                {"name": "m", "kind": "hunt",
                 "matrix": {"policy": ["naive", "greedy_ready"]}},
            ],
        }
        spec = parse_spec(document)
        assert [run.name for run in spec.runs] == [
            "plain", "m-naive", "m-greedy_ready",
        ]

    def test_empty_matrix_is_an_error(self):
        document = {"spec_version": 1,
                    "runs": [{"kind": "prove", "matrix": {}}]}
        with pytest.raises(SpecError, match="non-empty object"):
            parse_spec(document)

    def test_non_list_axis_is_an_error(self):
        document = {"spec_version": 1,
                    "runs": [{"kind": "prove",
                              "matrix": {"policy": "naive"}}]}
        with pytest.raises(SpecError, match="non-empty list"):
            parse_spec(document)

    def test_unknown_axis_is_an_error(self):
        document = {"spec_version": 1,
                    "runs": [{"kind": "prove",
                              "matrix": {"polcy": ["naive"]}}]}
        with pytest.raises(SpecError, match="unknown matrix axis"):
            parse_spec(document)

    def test_axis_overlapping_the_entry_is_an_error(self):
        document = {"spec_version": 1,
                    "runs": [{"kind": "prove", "policy": "naive",
                              "matrix": {"policy": ["naive"]}}]}
        with pytest.raises(SpecError, match="also set on the run"):
            parse_spec(document)

    def test_invalid_cell_names_the_generated_run(self):
        document = {"spec_version": 1,
                    "runs": [{"name": "s", "kind": "prove",
                              "matrix": {"policy": ["no_such"]}}]}
        with pytest.raises(SpecError, match="invalid run 's-no_such'"):
            parse_spec(document)

    def test_matrix_execution(self):
        document = {
            "spec_version": 1,
            "runs": [{"name": "h", "kind": "hunt",
                      "scope": {"cores": 3, "max_load": 2},
                      "matrix": {"policy": ["balance_count", "naive"]}}],
        }
        outcomes = run_spec(parse_spec(document))
        assert [run.name for run, _ in outcomes] == [
            "h-balance_count", "h-naive",
        ]
        assert outcomes[0][1].ok
        assert not outcomes[1][1].ok

    def test_matrix_with_store_is_incremental(self, tmp_path):
        from repro.api import ResultReused
        from repro.store import FileStore

        document = {
            "spec_version": 1,
            "runs": [{"name": "h", "kind": "hunt",
                      "scope": {"cores": 3, "max_load": 2},
                      "matrix": {"policy": ["balance_count", "naive"]}}],
        }
        store = FileStore(tmp_path)
        spec = parse_spec(document)
        cold = run_spec(spec, store=store)
        events = []
        warm = run_spec(spec, store=store,
                        subscribers=(events.append,))
        assert sum(isinstance(e, ResultReused) for e in events) == 2
        for (_, cold_result), (_, warm_result) in zip(cold, warm):
            assert warm_result.render() == cold_result.render()


class TestShippedSpecs:
    """Every spec under examples/specs/ must at least load cleanly."""

    @pytest.mark.parametrize(
        "path", sorted(SPECS_DIR.glob("*.json")), ids=lambda p: p.name
    )
    def test_example_spec_loads(self, path):
        spec = load_spec(str(path))
        assert spec.runs
        assert spec.description

    def test_examples_exist(self):
        assert (SPECS_DIR / "quickstart.json").exists()
        assert (SPECS_DIR / "topology_sweep.json").exists()
