"""Value semantics of the package's records: repr, equality, hash, immutability
and validation."""

import math

import pytest

from noongen import (
    BeamSplitter,
    CrossKerr,
    HeraldedOutcome,
    LossModel,
    MethodConfig,
    NoonReport,
    PhaseShifter,
    ResourceCount,
    SweepRow,
    SweepSpec,
    asymptotic_ratio,
    generator_magnitudes,
    make_fock,
    optimal_alpha_sq,
    resource_counts,
)

OUTCOME = HeraldedOutcome(make_fock(2, (1, 0)), make_fock(3, (1, 0, 1)))

# Each record with its repr, as the package has always printed it.
RECORDS = [
    (BeamSplitter(0, 1, 0.5), "BeamSplitter(mode_i=0, mode_j=1, theta=0.5)"),
    (
        BeamSplitter(mode_i=2, mode_j=3, theta=math.pi / 4),
        "BeamSplitter(mode_i=2, mode_j=3, theta=0.7853981633974483)",
    ),
    (PhaseShifter(mode=3, phi=-1.0), "PhaseShifter(mode=3, phi=-1.0)"),
    (CrossKerr(0, 1, 0.5), "CrossKerr(mode_i=0, mode_j=1, chi=0.5)"),
    (
        OUTCOME,
        "HeraldedOutcome(state=FockState(mode_count=2, terms=1), "
        "before=FockState(mode_count=3, terms=1))",
    ),
    (MethodConfig(1, 2, 3), "MethodConfig(method=1, d=2, N=3, alpha=None)"),
    (
        MethodConfig(method=1, d=2, N=3, alpha=1 + 2j),
        "MethodConfig(method=1, d=2, N=3, alpha=(1+2j))",
    ),
    (
        NoonReport(
            d=2,
            N=1,
            component_amplitudes=(0.5j, -0.5j),
            generation_probability=0.5,
            sign_pattern=(1 + 0j, -1 + 0j),
            balanced=True,
            residual_norm=0.0,
        ),
        "NoonReport(d=2, N=1, component_amplitudes=(0.5j, (-0-0.5j)), "
        "generation_probability=0.5, sign_pattern=((1+0j), (-1+0j)), "
        "balanced=True, residual_norm=0.0)",
    ),
    (
        ResourceCount(8, 0, 8, 0, 8),
        "ResourceCount(beam_splitters=8, phase_shifters=0, spcd_detectors=8, "
        "fock_inputs=0, single_photon_inputs=8, odd_n_variant=False)",
    ),
    (
        resource_counts(3, 4, 3),
        "ResourceCount(beam_splitters=27, phase_shifters=9, spcd_detectors=9, "
        "fock_inputs=4, single_photon_inputs=0, odd_n_variant=True)",
    ),
    (LossModel(0.9, 1.0), "LossModel(eta_detector=0.9, eta_single_photon=1.0)"),
    (
        SweepSpec((1, 2), "d", 4, (2, 3)),
        "SweepSpec(methods=(1, 2), vary='d', fixed=4, values=(2, 3), alpha_sq=None)",
    ),
    (
        SweepSpec(methods=(3,), vary="N", fixed=2, values=(1, 2), alpha_sq=0.5),
        "SweepSpec(methods=(3,), vary='N', fixed=2, values=(1, 2), alpha_sq=0.5)",
    ),
    (
        SweepRow(1, 2, 7, 3.5, 3.5525031012138788e-06, None, None),
        "SweepRow(method=1, d=2, N=7, alpha_sq=3.5, p_closed=3.5525031012138788e-06, "
        "p_sim=None, rel_err=None)",
    ),
]
# A valid new value of one field per record type.
CHANGES = {
    BeamSplitter: ("theta", 0.25),
    PhaseShifter: ("phi", 0.25),
    CrossKerr: ("chi", 0.25),
    HeraldedOutcome: ("before", make_fock(1, (0,))),
    MethodConfig: ("N", 4),
    NoonReport: ("balanced", False),
    ResourceCount: ("fock_inputs", 1),
    LossModel: ("eta_detector", 0.5),
    SweepSpec: ("fixed", 6),
    SweepRow: ("rel_err", 0.5),
}
IDS = [f"{type(record).__name__}-{i}" for i, (record, _) in enumerate(RECORDS)]


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
class TestValueSemantics:
    def test_equal_and_same_hash_when_rebuilt_by_keyword(self, record):
        rebuilt = type(record)(**record._asdict())
        assert rebuilt is not record
        assert rebuilt == record and not rebuilt != record
        assert hash(rebuilt) == hash(record)
        assert {record: 1}[rebuilt] == 1

    def test_unequal_when_a_field_differs(self, record):
        field, value = CHANGES[type(record)]
        changed = type(record)(**{**record._asdict(), field: value})
        assert changed != record and not changed == record

    def test_never_equal_to_its_plain_tuple(self, record):
        plain = tuple(record._asdict().values())
        assert record != plain and plain != record
        assert not record == plain and not plain == record

    def test_assignment_raises(self, record):
        first = next(iter(record._asdict()))
        with pytest.raises(AttributeError):
            setattr(record, first, 1)
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, first)


def test_element_types_with_equal_fields_differ():
    elements = [BeamSplitter(0, 1, 0.5), CrossKerr(0, 1, 0.5)]
    assert elements[0] != elements[1] and not elements[0] == elements[1]
    assert elements[1] != elements[0] and not elements[1] == elements[0]
    assert len(set(elements)) == 2
    assert PhaseShifter(0, 0.5) != LossModel(0, 0.5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MethodConfig(5, 2, 2), "method must be 1, 2, 3 or 4, got 5"),
        (lambda: MethodConfig(1, 1, 2), "d must be at least 2, got 1"),
        (lambda: MethodConfig(1, 2, 0), "N must be at least 1, got 0"),
        (lambda: MethodConfig(3, 3, 2), "d must be a power of two for methods 3 and 4"),
        (lambda: MethodConfig(True, 2, 2), "method must be an int, got True"),
        (lambda: MethodConfig(1, 2.0, 2), "d must be an int, got 2.0"),
        (lambda: MethodConfig(3, 4.0, 2), "d must be an int, got 4.0"),
        (lambda: MethodConfig(1, 2, 2.0), "N must be an int, got 2.0"),
        (lambda: MethodConfig(1, 2, 2, alpha=math.inf), "alpha must be finite, got inf"),
        (lambda: MethodConfig(2, 2, 2, alpha=5), "alpha applies to method 1 only, got method 2"),
        (lambda: MethodConfig(3, 2, 2, alpha=1.0), "alpha applies to method 1 only, got method 3"),
        (lambda: optimal_alpha_sq(2.5, 3), "d must be an int, got 2.5"),
        (lambda: optimal_alpha_sq(True, 3), "d must be an int, got True"),
        (lambda: generator_magnitudes(2.5), "N must be an int of at least 1, got 2.5"),
        (lambda: asymptotic_ratio(2.5), "N must be an int of at least 2, got 2.5"),
        (lambda: LossModel(1.5, 1.0), "eta_detector must lie in [0, 1], got 1.5"),
        (
            lambda: LossModel(eta_detector=1.0, eta_single_photon=-0.1),
            "eta_single_photon must lie in [0, 1], got -0.1",
        ),
        (lambda: SweepSpec((1,), "x", 4, (2,)), "vary must be 'd' or 'N', got 'x'"),
        (lambda: SweepSpec((), "d", 4, (2,)), "at least one method is required"),
        (lambda: SweepSpec((5,), "d", 4, (2,)), "method must be 1, 2, 3 or 4, got 5"),
        (lambda: SweepSpec((1,), "d", 4, ()), "sweep values must be non-empty"),
        (lambda: SweepSpec((1,), "d", 4, (1, 2)), "swept d values must be at least 2"),
        (lambda: SweepSpec((1,), "N", 2, (0, 2)), "swept N values must be at least 1"),
        (lambda: SweepSpec((1,), "d", 0, (2,)), "fixed value 0 out of range"),
        (lambda: SweepSpec((1,), "N", 1, (2,)), "fixed value 1 out of range"),
        (
            lambda: SweepSpec(methods=(1,), vary="d", fixed=4, values=(2,), alpha_sq=-1.0),
            "alpha_sq must be finite and non-negative, got -1.0",
        ),
    ],
)
def test_validation_errors(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_method_config_takes_no_tolerance():
    # The NOON report's threshold is fixed; a tolerance keyword is unknown.
    with pytest.raises(TypeError, match="tolerance"):
        MethodConfig(method=1, d=2, N=2, tolerance=1e-10)
