"""Lossless JSON round-trip of results: serialize -> parse -> byte-identical.

The law under test: for any result the API produces,
``dumps(loads(dumps(result))) == dumps(result)`` *and*
``loads(dumps(result)) == result`` (full dataclass equality, including
counterexamples, lassos, and timings). Both directions matter — byte
identity proves the serialisation is canonical, object equality proves
nothing was approximated (e.g. tuples decaying to lists).
"""

import pytest

from repro.api import (
    Session,
    VerificationRequest,
    dumps_result,
    loads_result,
    request_from_dict,
    request_to_dict,
)
from repro.api.report import CodecError, decode_value, encode_value


def roundtrip(result):
    text = dumps_result(result)
    parsed = loads_result(text)
    assert dumps_result(parsed) == text, "re-serialisation must be byte-identical"
    assert parsed == result, "decoded result must equal the original"
    assert parsed.render() == result.render()
    assert parsed.exit_code == result.exit_code
    return parsed


class TestResultRoundTrip:
    def test_proved_certificate(self):
        request = (VerificationRequest.builder("prove")
                   .policy("balance_count").scope(cores=3, max_load=2)
                   .build())
        roundtrip(Session().run(request))

    def test_refuted_certificate_keeps_counterexamples(self):
        request = (VerificationRequest.builder("prove")
                   .policy("naive").scope(cores=3, max_load=2).build())
        result = Session().run(request)
        assert not result.ok
        parsed = roundtrip(result)
        refuted = parsed.certificate.report.refuted
        assert refuted and refuted[0].counterexample is not None
        # states survive as tuples, not lists
        assert isinstance(refuted[0].counterexample.state, tuple)

    def test_hunt_lasso_roundtrips_as_tuples(self):
        request = VerificationRequest.builder("hunt").policy("naive").build()
        result = Session().run(request)
        parsed = roundtrip(result)
        lasso = parsed.analysis.lasso
        assert lasso is not None
        assert isinstance(lasso.cycle, tuple)
        assert all(isinstance(state, tuple) for state in lasso.cycle)

    def test_zoo_matrix(self):
        request = (VerificationRequest.builder("zoo")
                   .scope(cores=3, max_load=2).build())
        roundtrip(Session().run(request))

    def test_campaign_with_violations(self):
        request = (VerificationRequest.builder("campaign")
                   .policy("naive")
                   .campaign(machines=10, rounds=10, max_cores=5)
                   .build())
        result = Session().run(request)
        assert result.campaign.violations
        roundtrip(result)

    def test_indented_form_also_roundtrips(self):
        request = (VerificationRequest.builder("hunt")
                   .policy("balance_count").build())
        result = Session().run(request)
        pretty = result.to_json(indent=2)
        assert loads_result(pretty) == result

    def test_normalized_results_zero_every_timing(self):
        request = (VerificationRequest.builder("prove")
                   .policy("balance_count").scope(cores=3, max_load=2)
                   .build())
        normal = Session().run(request).normalized()
        assert all(v == 0.0 for v in normal.timings.values())
        assert normal.certificate.analysis.elapsed_s == 0.0
        assert all(r.elapsed_s == 0.0
                   for r in normal.certificate.report.results)
        # normalizing is idempotent
        assert normal.normalized() == normal


class TestRequestCodec:
    def test_roundtrip_drops_nothing(self):
        request = (VerificationRequest.builder("campaign")
                   .policy("numa_choice", margin=3, seed=5)
                   .topology("numa:2x2")
                   .campaign(machines=9, rounds=4, seed=5)
                   .pool(jobs=2)
                   .build())
        assert request_from_dict(request_to_dict(request)) == request

    def test_defaults_are_omitted_from_the_document(self):
        request = (VerificationRequest.builder("prove")
                   .policy("balance_count").build())
        document = request_to_dict(request)
        assert document == {"kind": "prove",
                            "policy": {"name": "balance_count"}}

    def test_policy_shorthand_string(self):
        request = request_from_dict({"kind": "hunt", "policy": "naive"})
        assert request.policy.name == "naive"

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(CodecError, match="unknown request key"):
            request_from_dict({"kind": "prove", "policy": "naive",
                               "polcy": "typo"})
        with pytest.raises(CodecError, match="unknown scope key"):
            request_from_dict({"kind": "hunt", "policy": "naive",
                               "scope": {"cpus": 3}})

    def test_missing_kind_is_rejected(self):
        with pytest.raises(CodecError, match="'kind'"):
            request_from_dict({"policy": "naive"})


class TestValueCodec:
    def test_tuples_are_tagged(self):
        value = {"lasso": ((0, 1, 2), (0, 2, 1)), "depth": 3,
                 "mixed": [1, (2, 3)], "nested": {"t": (1,)}}
        assert decode_value(encode_value(value)) == value

    def test_tag_collision_dicts_are_escaped(self):
        value = {"__tuple__": [1, 2], "other": 3}
        assert decode_value(encode_value(value)) == value

    def test_non_string_keys_are_rejected(self):
        with pytest.raises(CodecError, match="keys must be strings"):
            encode_value({1: "a"})

    def test_unserialisable_values_are_rejected(self):
        with pytest.raises(CodecError, match="cannot serialise"):
            encode_value(object())

    def test_malformed_documents_fail_cleanly(self):
        with pytest.raises(CodecError, match="not valid JSON"):
            loads_result("{nope")
        with pytest.raises(CodecError, match="not valid JSON"):
            loads_result("[" * 100_000)
        with pytest.raises(CodecError, match="unsupported result format"):
            loads_result('{"format": "something/else"}')
