"""Positive-characteristic integrating factors: frames, p-th powers, sieving."""

import json
import random

import pytest

from gvcalc import (
    Chart,
    DegenerateFrame,
    DiffForm,
    GvError,
    MultiPoly,
    NotIntegrable,
    PClosedCase,
    RatFn,
    VectorField,
    batch_integrating_factors,
    dual_frame,
    ext_d,
    form_apply,
    integrating_factor,
    invariant_hypersurface_candidates,
    vf_pth_power,
)
from gvcalc.charp import _closed_identity


def plane(p: int) -> Chart:
    return Chart(("x", "y"), p)


def worked_form(chart: Chart) -> DiffForm:
    """dx + xy dy, the running two-variable example."""
    x = chart.var("x")
    y = chart.var("y")
    return DiffForm.one_form(chart, [chart.one(), x * y])


class TestDualFrame:
    def test_worked_frame_char_two(self) -> None:
        chart = plane(2)
        x = chart.var("x")
        w = worked_form(chart)
        frame = dual_frame(w, fs=[chart.var("y")])
        assert frame.fields[0] == VectorField(chart, [x * chart.var("y"), 1])
        assert frame.fields[1] == VectorField(chart, [1, 0])
        assert frame.basis_forms == (DiffForm.coordinate(chart, "y"), w)
        assert frame.kernel_fields == (frame.fields[0],)

    def test_contraction_matrix_is_identity(self) -> None:
        chart = plane(5)
        w = worked_form(chart)
        frame = dual_frame(w, fs=[chart.var("y")])
        for i, a in enumerate(frame.basis_forms):
            for j, v in enumerate(frame.fields):
                expected = chart.one() if i == j else chart.zero()
                assert form_apply(a, v) == expected

    def test_default_scan_annihilates_the_form(self) -> None:
        chart = plane(2)
        w = worked_form(chart)
        frame = dual_frame(w)
        assert form_apply(w, frame.fields[0]).is_zero()
        assert form_apply(w, frame.fields[1]) == chart.one()

    def test_coordinate_frame_in_three_variables(self) -> None:
        chart = Chart(("x", "y", "z"), 3)
        w = DiffForm.coordinate(chart, "z")
        frame = dual_frame(w, fs=[chart.var("x"), chart.var("y")])
        assert frame.fields[0] == VectorField.coordinate(chart, "x")
        assert frame.fields[1] == VectorField.coordinate(chart, "y")
        assert frame.fields[2] == VectorField.coordinate(chart, "z")

    def test_kernel_fields_commute_for_integrable_forms(self) -> None:
        chart = Chart(("x", "y", "z"), 5)
        z = chart.var("z")
        w = DiffForm.one_form(chart, [z, 0, 1])
        frame = dual_frame(w)
        x1, x2 = frame.kernel_fields
        assert x1.bracket(x2).is_zero()
        assert form_apply(w, x1).is_zero()
        assert form_apply(w, x2).is_zero()

    def test_degenerate_choice_raises(self) -> None:
        chart = plane(2)
        w = DiffForm.coordinate(chart, "x")
        with pytest.raises(DegenerateFrame):
            dual_frame(w, fs=[chart.var("x")])

    def test_zero_form_has_no_frame(self) -> None:
        chart = plane(3)
        with pytest.raises(DegenerateFrame):
            dual_frame(DiffForm.zero(chart, 1))

    def test_characteristic_zero_rejected(self) -> None:
        chart = Chart(("x", "y"), 0)
        with pytest.raises(GvError):
            dual_frame(DiffForm.coordinate(chart, "x"))

    def test_wrong_function_count_rejected(self) -> None:
        chart = plane(2)
        with pytest.raises(GvError):
            dual_frame(worked_form(chart), fs=[chart.var("x"), chart.var("y")])


class TestPthPower:
    def test_coordinate_field_power_vanishes(self) -> None:
        chart = plane(3)
        x = VectorField.coordinate(chart, "x")
        assert vf_pth_power(x, 3).is_zero()

    def test_scaling_field_is_fixed(self) -> None:
        for p in (2, 3, 5, 7):
            chart = plane(p)
            e = VectorField(chart, [chart.var("x"), 0])
            assert vf_pth_power(e, p) == e

    def test_worked_square_char_two(self) -> None:
        chart = plane(2)
        x = chart.var("x")
        y = chart.var("y")
        v = VectorField(chart, [x * y, 1])
        assert vf_pth_power(v, 2) == VectorField(chart, [x * y * y + x, 0])

    def test_exponent_must_match_characteristic(self) -> None:
        chart = plane(2)
        v = VectorField.coordinate(chart, "x")
        with pytest.raises(GvError):
            vf_pth_power(v, 3)
        with pytest.raises(GvError):
            vf_pth_power(VectorField.coordinate(Chart(("x",), 0), "x"), 2)

    def test_power_is_a_derivation(self) -> None:
        rng = random.Random(20)
        chart = plane(3)
        x = chart.var("x")
        y = chart.var("y")
        pool = [x, y, x + y, x * y + 1, x * x + y, y * y + x + 2]
        for _ in range(6):
            v = VectorField(chart, [rng.choice(pool), rng.choice(pool)])
            vp = vf_pth_power(v, 3)
            f = rng.choice(pool)
            g = rng.choice(pool)
            assert vp.apply(f * g) == f * vp.apply(g) + g * vp.apply(f)

    def test_power_matches_iterated_application(self) -> None:
        chart = plane(5)
        x = chart.var("x")
        y = chart.var("y")
        v = VectorField(chart, [y, x * x])
        vp = vf_pth_power(v, 5)
        probe = x * x * y + y + 3
        iterated = probe
        for _ in range(5):
            iterated = v.apply(iterated)
        assert vp.apply(probe) == iterated


class TestIntegratingFactor:
    def test_worked_instance_char_two(self) -> None:
        chart = plane(2)
        x = chart.var("x")
        y = chart.var("y")
        w = worked_form(chart)
        f = integrating_factor(w, fs=[y])
        assert f == (x * (y + 1) ** 2).inv()
        assert (f * x * (y + 1) ** 2).is_constant()
        assert ext_d(w * f).is_zero()

    def test_default_scan_also_closes(self) -> None:
        chart = plane(2)
        w = worked_form(chart)
        f = integrating_factor(w)
        assert not f.is_zero()
        assert ext_d(w * f).is_zero()

    def test_closed_form_is_p_closed(self) -> None:
        for p in (2, 3, 5, 7):
            chart = plane(p)
            with pytest.raises(PClosedCase):
                integrating_factor(DiffForm.coordinate(chart, "x"))

    def test_quadratic_example_is_p_closed_char_three(self) -> None:
        chart = plane(3)
        x = chart.var("x")
        w = DiffForm.one_form(chart, [chart.one(), x * x])
        with pytest.raises(PClosedCase):
            integrating_factor(w, fs=[chart.var("y")])

    def test_worked_form_char_three(self) -> None:
        chart = plane(3)
        x = chart.var("x")
        y = chart.var("y")
        w = worked_form(chart)
        f = integrating_factor(w, fs=[y])
        assert (f * x * y ** 3).is_constant()
        assert ext_d(w * f).is_zero()

    def test_three_variables_char_five(self) -> None:
        chart = Chart(("x", "y", "z"), 5)
        z = chart.var("z")
        w = DiffForm.one_form(chart, [z, 0, 1])
        f = integrating_factor(w)
        assert (f * z).is_constant()
        assert ext_d(w * f).is_zero()

    def test_contact_form_rejected(self) -> None:
        chart = Chart(("x", "y", "z"), 5)
        y = chart.var("y")
        w = DiffForm.one_form(chart, [-y, 0, 1])
        with pytest.raises(NotIntegrable):
            integrating_factor(w)

    def test_characteristic_zero_rejected(self) -> None:
        chart = Chart(("x", "y"), 0)
        with pytest.raises(GvError):
            integrating_factor(worked_form(chart))

    def test_closed_identity_rejects_a_non_factor(self) -> None:
        # the closedness certificate is a real identity: it holds for the
        # factor and fails once the factor is perturbed
        for p in (2, 3):
            chart = plane(p)
            x = chart.var("x")
            w = worked_form(chart)
            f = integrating_factor(w, fs=[chart.var("y")])
            assert _closed_identity(f, w)
            assert not _closed_identity(f * x, w)
            assert not _closed_identity(chart.one(), w)


class TestCandidates:
    def test_worked_candidates_char_two(self) -> None:
        chart = plane(2)
        w = worked_form(chart)
        f = integrating_factor(w, fs=[chart.var("y")])
        candidates = invariant_hypersurface_candidates(f, w)
        assert candidates == [(MultiPoly.var(chart, "x"), True)]

    def test_multiplicity_divisible_by_p_excluded(self) -> None:
        chart = plane(3)
        x = chart.var("x")
        y = chart.var("y")
        w = DiffForm.coordinate(chart, "x") * (x ** 3 * y)
        f = (x ** 3 * y).inv()
        candidates = invariant_hypersurface_candidates(f, w)
        assert candidates == [(MultiPoly.var(chart, "y"), True)]

    def test_numerator_factors_are_sieved(self) -> None:
        chart = plane(3)
        x = chart.var("x")
        y = chart.var("y")
        f = x ** 3 * y
        w = DiffForm.coordinate(chart, "x") * f.inv()
        candidates = invariant_hypersurface_candidates(f, w)
        assert len(candidates) == 1
        factor, verified = candidates[0]
        assert factor == MultiPoly.var(chart, "y")
        assert verified is False

    def test_nonlinear_factor_reported_unverified(self) -> None:
        chart = plane(5)
        x = chart.var("x")
        y = chart.var("y")
        g = x * x + y * y + 1
        w = DiffForm.coordinate(chart, "x") * g
        candidates = invariant_hypersurface_candidates(g.inv(), w)
        assert len(candidates) == 1
        factor, verified = candidates[0]
        assert RatFn.from_poly(factor) == g
        assert verified is False

    def test_graph_substitution_with_rational_solve(self) -> None:
        chart = plane(2)
        x = chart.var("x")
        y = chart.var("y")
        w = DiffForm.one_form(chart, [y, x])
        f = x * y + 1
        assert ext_d(w * f).is_zero()
        candidates = invariant_hypersurface_candidates(f, w)
        assert len(candidates) == 1
        factor, verified = candidates[0]
        assert RatFn.from_poly(factor) == f
        assert verified is True

    def test_pth_power_factor_rejected(self) -> None:
        chart = plane(2)
        y = chart.var("y")
        f = (y + 1) ** 2
        w = DiffForm.coordinate(chart, "x") * f.inv()
        with pytest.raises(GvError, match="p-th power"):
            invariant_hypersurface_candidates(f, w)

    def test_non_factor_rejected(self) -> None:
        chart = plane(2)
        y = chart.var("y")
        with pytest.raises(GvError, match="not an integrating factor"):
            invariant_hypersurface_candidates(y, worked_form(chart))

    def test_characteristic_zero_rejected(self) -> None:
        chart = Chart(("x", "y"), 0)
        with pytest.raises(GvError):
            invariant_hypersurface_candidates(chart.var("x"), worked_form(chart))


class TestBatch:
    def test_identical_seeds_reproduce_records(self) -> None:
        a = batch_integrating_factors(2, 12, seed=9)
        b = batch_integrating_factors(2, 12, seed=9)
        assert a == b
        assert json.dumps(a) == json.dumps(b)

    def test_outcome_contract_all_primes(self) -> None:
        for p in (2, 3, 5, 7):
            records = batch_integrating_factors(p, 8, seed=p)
            assert [r["instance"] for r in records] == list(range(8))
            for rec in records:
                assert rec["outcome"] in {"factor-found", "p-closed"}
                assert "form" in rec["certificate"]
                if rec["outcome"] == "factor-found":
                    assert rec["certificate"]["closed"] is True
                    assert rec["certificate"]["factor"]
                else:
                    assert "reason" in rec["certificate"]
                json.dumps(rec)

    def test_both_outcomes_occur(self) -> None:
        records = batch_integrating_factors(2, 40, seed=3)
        outcomes = {r["outcome"] for r in records}
        assert outcomes == {"factor-found", "p-closed"}
