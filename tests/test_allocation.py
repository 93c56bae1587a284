import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from wfsim import (
    HQL_MODEL,
    SQL_MODEL,
    TABLE_HQL,
    TABLE_SQL,
    DecoheredSignalError,
    ErrorModel,
    PhaseEnsemble,
    Protocol,
    ReadoutModel,
    SampleGrid,
    SensorParams,
    WfsimError,
    calibrated_tone,
    continuous_optimum,
    fit_loglog,
    optimize_exact,
    paper_rule_sql,
    plan_acquisition,
    recon_error_sq,
    run_scaling_experiment,
    statistical_error_curve,
    validate_paper_tables,
)
from wfsim import allocation

from test_measurement import _acquire_oracle

P = SensorParams()


def _budget_oracle(m, N):
    # the O(N) budget-mode scan: every n1 with n2 = N // n1, smaller n1 wins a tie
    best = None
    for n1 in range(1, N + 1):
        n2 = N // n1
        d = m.predicted_delta_sq(n1, n2)
        if best is None or d < best[0] or (d == best[0] and n1 < best[1]):
            best = (d, n1, n2)
    return best


KINDS = {"sql": Protocol.RAMSEY_SQL, "hql": Protocol.PDD_TDQD}


@pytest.mark.parametrize("noise_mode", ["gaussian", "poisson", "none"])
class TestSeedChunks:
    """The seed loop draws its seeds in chunks of about _CHUNK_DRAWS noise
    draws; where the chunks fall moves no bit."""

    @staticmethod
    def chunk_lengths(monkeypatch):
        lengths, draw = [], allocation._acquire

        def spy(plan, m, key, counters):
            lengths.append(len(counters))
            return draw(plan, m, key, counters)
        monkeypatch.setattr(allocation, "_acquire", spy)
        return lengths

    @pytest.mark.parametrize("scheme, budgets, seeds, chunks, chunk_draws", [
        # sql N = 480 is (8, 60): 960 draws a seed, 34 seeds in 2^15 draws
        ("sql", [480], 40, [34, 6], None),
        # sql N = 20000 is (25, 800): 40000 draws a seed, more than a chunk
        ("sql", [20000], 3, [1, 1, 1], None),
        # hql N = 140 is (10, 14) with one column: 20 draws a seed
        ("hql", [140], 12, [5, 5, 2], 100),
        # hql N = 1924 is (37, 52): 74 draws a seed; sql N = 32 is (4, 8): 64
        ("hql", [1924], 3, [1, 1, 1], 100),
        ("sql", [32], 3, [1, 1, 1], 100),
    ])
    def test_scaling_rows_equal_per_seed_oracle(self, monkeypatch, noise_mode, scheme, budgets,
                                                seeds, chunks, chunk_draws):
        if chunk_draws is not None:
            monkeypatch.setattr(allocation, "_CHUNK_DRAWS", chunk_draws)
        lengths = self.chunk_lengths(monkeypatch)
        w, m = calibrated_tone(P, 150e-9, 9.6e-6), ReadoutModel(seed=5, noise_mode=noise_mode)
        rows, _ = run_scaling_experiment(scheme, budgets, w, P, m, seeds=seeds,
                                         decoherence=False)
        assert lengths == chunks
        assert rows == _scaling_oracle(scheme, budgets, w, P, m, seeds, decoherence=False)

    @pytest.mark.parametrize("scheme, n1, seeds, chunks, chunk_draws", [
        # n2 = 4 at n1 = 4: 32 draws a seed for sql, 8 for hql
        ("sql", 4, 7, [3, 3, 1], 100),
        ("hql", 4, 30, [12, 12, 6], 100),
        # hql at n1 = 20000: 40000 draws a seed, more than a chunk
        ("hql", 20000, 3, [1, 1, 1], None),
    ])
    def test_statistical_curve_equals_per_seed_oracle(self, monkeypatch, noise_mode, scheme, n1,
                                                      seeds, chunks, chunk_draws):
        if chunk_draws is not None:
            monkeypatch.setattr(allocation, "_CHUNK_DRAWS", chunk_draws)
        lengths = self.chunk_lengths(monkeypatch)
        w, m = calibrated_tone(P, 150e-9, 9.6e-6), ReadoutModel(seed=8, noise_mode=noise_mode)
        got = statistical_error_curve(scheme, [4], w, P, m, n1=n1, seeds=seeds)
        assert lengths == chunks
        assert got == _stat_oracle(scheme, [4], w, P, m, seeds, n1=n1)


def _seed_phi_bar(scheme, w, p, m, n1, n2, key, s):
    # one full acquisition per (budget, seed), seed s drawn on its own by a
    # fresh Philox(SeedSequence([seed, key])) jumped s times
    plan = plan_acquisition(KINDS[scheme], w, p, n1, n2, 150e-9)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([m.seed, key])).jumped(s))
    return _acquire_oracle(plan, m, rng).mean(axis=1)


def _scaling_oracle(scheme, N_list, w, p, m, seeds, decoherence=True, allocator="exact"):
    # the per-seed loop: allocate, then acquire, reconstruct and score every seed
    model = SQL_MODEL if scheme == "sql" else HQL_MODEL
    p_run = p if decoherence else p.without_decoherence()
    rows = []
    for N in N_list:
        if allocator == "paper":
            n1, n2 = paper_rule_sql(N)
        else:
            alloc = optimize_exact(model, N)
            n1, n2 = alloc.n1, alloc.n2
        if scheme == "hql" and n2 % 2 != 0:
            _, n1, n2 = min((model.predicted_delta_sq(a, N // a), a, N // a)
                            for a in range(1, N + 1) if N % a == 0 and (N // a) % 2 == 0)
        deltas = np.array([
            math.sqrt(recon_error_sq(_seed_phi_bar(scheme, w, p_run, m, n1, n2, N, s),
                                     w, p_run, 150e-9))
            for s in range(seeds)])
        rows.append({"N": N, "n1": n1, "n2": n2, "delta": float(deltas.mean()),
                     "delta_ci": float(1.96 * deltas.std(ddof=1) / math.sqrt(seeds))})
    return rows


def _stat_oracle(scheme, n2_list, w, p, m, seeds, decoherence=False, n1=4):
    p_run = p if decoherence else p.without_decoherence()
    out = []
    for n2 in n2_list:
        phi_bars = np.array([_seed_phi_bar(scheme, w, p_run, m, n1, n2, n2, s)
                             for s in range(seeds)])
        out.append((n2, float(np.sqrt(phi_bars.var(axis=0, ddof=1).mean()))))
    return out


def _raised(f, *args, **kwargs):
    with pytest.raises(Exception) as info:
        f(*args, **kwargs)
    return type(info.value), str(info.value)


def _budget(m, N):
    alloc = optimize_exact(m, N, budget_mode=True)
    return alloc.predicted_delta_sq, alloc.n1, alloc.n2


class TestErrorModel:
    def test_predicted_delta_sq_hand_case(self):
        m = ErrorModel(a_stat=0.2, p_stat=0.5, c_det=0.1, q=1.0)
        # (0.2/sqrt(4))^2 + (0.1/5)^2 = 0.01 + 0.0004
        assert m.predicted_delta_sq(5, 4) == pytest.approx(0.0104, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorModel(a_stat=0.0)
        with pytest.raises(ValueError):
            ErrorModel(q=1.5)

    @pytest.mark.parametrize("bad", [
        {"p_stat": 0.0}, {"p_stat": -1.0}, {"p_stat": math.nan}, {"p_stat": math.inf},
        {"a_stat": math.inf}, {"a_stat": math.nan}, {"c_det": math.inf}, {"c_det": math.nan},
    ])
    def test_rejects_non_finite_or_non_positive_constant(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ErrorModel(**bad)


class TestContinuousOptimum:
    @pytest.mark.parametrize("model", [SQL_MODEL, HQL_MODEL])
    @pytest.mark.parametrize("N", [12, 140, 560, 2380])
    def test_matches_numeric_minimizer(self, model, N):
        # oracle: 1-D minimization of a^2 (n1/N)^(2p) + c^2 n1^(-2q)
        def f(n1):
            return (model.a_stat * (n1 / N) ** model.p_stat) ** 2 + \
                   (model.c_det / n1 ** model.q) ** 2
        res = minimize_scalar(f, bounds=(1.0, float(N)), method="bounded",
                              options={"xatol": 1e-10})
        assert continuous_optimum(model, N) == pytest.approx(res.x, rel=1e-6)

    def test_hql_closed_form_hand_case(self):
        # p = q = 1: n1* = sqrt(c/a) * sqrt(N)
        n1 = continuous_optimum(HQL_MODEL, 560)
        assert n1 == pytest.approx(math.sqrt(0.04 / 0.0555) * math.sqrt(560), rel=1e-12)
        assert round(n1) == 20

    def test_sql_cube_root_growth(self):
        # p = 1/2, q = 1: n1* grows as N^(1/3)
        r = continuous_optimum(SQL_MODEL, 8 * 1000) / continuous_optimum(SQL_MODEL, 1000)
        assert r == pytest.approx(2.0, rel=1e-9)

    def test_clamped_to_range(self):
        assert continuous_optimum(SQL_MODEL, 1) == 1.0
        with pytest.raises(ValueError):
            continuous_optimum(SQL_MODEL, 0)


class TestOptimizeExact:
    def test_table_ii_examples(self):
        for N, n1, n2 in ((560, 20, 28), (140, 10, 14), (2580, 43, 60)):
            alloc = optimize_exact(HQL_MODEL, N)
            assert (alloc.n1, alloc.n2) == (n1, n2)
            assert alloc.n1 * alloc.n2 == N

    def test_product_constraint(self):
        alloc = optimize_exact(SQL_MODEL, 168)
        assert alloc.n1 * alloc.n2 == 168

    def test_brute_force_oracle(self):
        # exhaustive loop over every divisor pair, independently coded
        for model in (SQL_MODEL, HQL_MODEL):
            for N in (36, 560, 1984):
                best = min(
                    ((model.predicted_delta_sq(d, N // d), d) for d in range(1, N + 1)
                     if N % d == 0),
                )
                assert optimize_exact(model, N).predicted_delta_sq == pytest.approx(best[0])

    def test_budget_mode_at_least_as_good(self):
        for N in (97, 101, 997):  # primes: divisor mode is stuck at 1 x N
            strict = optimize_exact(HQL_MODEL, N)
            budget = optimize_exact(HQL_MODEL, N, budget_mode=True)
            assert budget.predicted_delta_sq <= strict.predicted_delta_sq
            assert budget.n1 * budget.n2 <= N

    def test_budget_mode_equals_oracle_on_every_n(self):
        for model in (SQL_MODEL, HQL_MODEL):
            for N in range(1, 3001):
                assert _budget(model, N) == _budget_oracle(model, N), (model, N)

    @given(st.floats(1e-6, 1e3), st.floats(1e-16, 2.0), st.floats(1e-6, 1e3),
           st.floats(1e-3, 1.0), st.integers(1, 3000))
    @settings(max_examples=150, deadline=None)
    def test_budget_mode_equals_oracle_for_any_model(self, a, p, c, q, N):
        model = ErrorModel(a_stat=a, p_stat=p, c_det=c, q=q)
        assert _budget(model, N) == _budget_oracle(model, N)

    def test_budget_mode_rounding_tie_goes_to_smaller_n1(self):
        # with p this small, delta^2 rounds to one value for n1 = 2702 .. 2769 (n2 = 1)
        model = ErrorModel(a_stat=1.0, p_stat=3.4737170818190823e-16,
                           c_det=9.905142288012867e-05, q=0.9651425798144134)
        assert _budget(model, 2769) == _budget_oracle(model, 2769)
        assert _budget(model, 2769)[1:] == (2702, 1)

    @pytest.mark.parametrize("model", [SQL_MODEL, HQL_MODEL])
    def test_budget_mode_scores_o_sqrt_n_candidates(self, model, monkeypatch):
        calls = 0
        score = ErrorModel.predicted_delta_sq

        def counted(self, n1, n2):
            nonlocal calls
            calls += 1
            return score(self, n1, n2)

        monkeypatch.setattr(ErrorModel, "predicted_delta_sq", counted)
        N = 200_000
        optimize_exact(model, N, budget_mode=True)
        assert calls <= 2 * math.isqrt(N) + 1

    def test_budget_mode_large_n(self):
        alloc = optimize_exact(HQL_MODEL, 20_000_000, budget_mode=True)
        assert (alloc.n1, alloc.n2) == (3803, 5259)

    @given(st.integers(2, 5000))
    @settings(max_examples=80, deadline=None)
    def test_never_beaten_by_other_divisor_pair(self, N):
        alloc = optimize_exact(HQL_MODEL, N)
        for d in range(1, int(math.isqrt(N)) + 1):
            if N % d == 0:
                assert alloc.predicted_delta_sq <= HQL_MODEL.predicted_delta_sq(d, N // d) + 1e-18
                assert alloc.predicted_delta_sq <= HQL_MODEL.predicted_delta_sq(N // d, d) + 1e-18


class TestPaperRule:
    def test_reproduces_all_sql_rows(self):
        for N, n1, n2 in TABLE_SQL:
            assert paper_rule_sql(N) == (n1, n2)

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            paper_rule_sql(100)  # round((200)^(1/3)) = 6, 100 % 6 != 0

    @pytest.mark.parametrize("N", [0, -3])
    def test_rejects_n_below_1(self, N):
        with pytest.raises(ValueError, match=f"N must be >= 1, got {N}"):
            paper_rule_sql(N)


class TestTables:
    def test_all_rows_validate(self):
        rows = validate_paper_tables()
        assert len(rows) == 21
        for r in rows:
            assert r["status"] != "FAIL", r

    def test_hql_rows_are_exact_rounded_optimum(self):
        for N, n1, n2 in TABLE_HQL:
            assert int(round(continuous_optimum(HQL_MODEL, N))) == n1
            assert N // n1 == n2 and N % n1 == 0

    def test_sql_rows_within_6_percent(self):
        for N, n1, n2 in TABLE_SQL:
            opt = optimize_exact(SQL_MODEL, N)
            ratio = SQL_MODEL.predicted_delta_sq(n1, n2) / opt.predicted_delta_sq
            assert 1.0 <= ratio <= 1.06


class TestFitLoglog:
    def test_recovers_exact_power_law(self):
        pts = [(n, 3.7 * n**-0.5) for n in (4, 8, 16, 32)]
        slope, intercept, stderr = fit_loglog(pts)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert math.exp(intercept) == pytest.approx(3.7, rel=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_loglog([(1, 1), (2, 2)])
        with pytest.raises(ValueError):
            fit_loglog([(1, 1), (2, 0.0), (3, 2)])


class TestCalibratedTone:
    def test_amplitude_from_target_phase(self):
        t_s = 150e-9
        w = calibrated_tone(P, t_s, 9.6e-6)
        (amp, harmonic, psi), = w.components
        assert harmonic == 1 and psi == 0.0
        assert 2 * P.gamma_e * t_s * amp == pytest.approx(0.04 * math.sqrt(6) / math.pi,
                                                          rel=1e-12)

    def test_det_error_matches_c_over_n1(self):
        from wfsim import deterministic_error_curve
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        curve = deterministic_error_curve(w, P, [128, 256], 150e-9)
        for n1, d in curve:
            assert d == pytest.approx(0.04 / n1, rel=0.01)


class TestStatisticalCurve:
    def test_sql_sqrt_scaling(self):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        pts = statistical_error_curve("sql", [4, 16, 64], w, P, ReadoutModel(seed=0),
                                      seeds=150)
        slope, intercept, _ = fit_loglog(pts)
        assert slope == pytest.approx(-0.5, abs=0.07)
        assert math.exp(intercept) == pytest.approx(0.0555, rel=0.15)

    def test_hql_linear_scaling(self):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        pts = statistical_error_curve("hql", [4, 16, 64], w, P, ReadoutModel(seed=0),
                                      seeds=150)
        slope, intercept, _ = fit_loglog(pts)
        assert slope == pytest.approx(-1.0, abs=0.07)
        assert math.exp(intercept) == pytest.approx(0.0555, rel=0.15)


class TestScalingExperiment:
    def test_rows_have_expected_allocations(self):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        rows, slope = run_scaling_experiment("hql", [140, 560], w, P,
                                             ReadoutModel(seed=0), seeds=5,
                                             decoherence=False)
        assert [(r["n1"], r["n2"]) for r in rows] == [(10, 14), (20, 28)]
        assert math.isnan(slope)  # fewer than 3 budgets: no fit

    def test_hql_even_n2_is_enforced(self):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        rows, _ = run_scaling_experiment("hql", [234], w, P, ReadoutModel(seed=0),
                                         seeds=3, decoherence=False)
        assert rows[0]["n2"] % 2 == 0
        assert rows[0]["n1"] * rows[0]["n2"] == 234

    def test_odd_n2_optimum_moves_to_the_best_even_split(self):
        # the model optimum of N = 500 is (20, 25); pdd-tdqd cannot run n2 = 25
        alloc = optimize_exact(HQL_MODEL, 500)
        assert (alloc.n1, alloc.n2) == (20, 25)
        _, n1, n2 = min((HQL_MODEL.predicted_delta_sq(a, 500 // a), a, 500 // a)
                        for a in range(1, 501) if 500 % a == 0 and (500 // a) % 2 == 0)
        assert (n1, n2) == (25, 20)
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        rows, _ = run_scaling_experiment("hql", [500], w, P, ReadoutModel(seed=0), seeds=3,
                                         decoherence=False)
        assert (rows[0]["n1"], rows[0]["n2"]) == (25, 20)

    def test_odd_budget_without_even_split_raises(self):
        # 561 = 3 * 11 * 17 has no even divisor
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        with pytest.raises(ValueError, match="N=561 admits no even-n2 allocation"):
            run_scaling_experiment("hql", [140, 561, 2240], w, P, ReadoutModel(), seeds=2,
                                   decoherence=False)

    def test_rejects_unknown_scheme(self):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        with pytest.raises(ValueError):
            run_scaling_experiment("bogus", [12], w, P, ReadoutModel())
        with pytest.raises(ValueError):
            run_scaling_experiment("hql", [12], w, P, ReadoutModel(), allocator="bogus")

    def test_unknown_scheme_rejected_before_any_allocation(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr("wfsim.allocation.optimize_exact", no_allocation)
        monkeypatch.setattr("wfsim.allocation.paper_rule_sql", no_allocation)
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        for allocator in ("exact", "paper"):
            with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
                run_scaling_experiment("bogus", [12], w, P, ReadoutModel(), seeds=2,
                                       allocator=allocator)

    def test_paper_allocator_is_sql_only(self):
        # it used to run the exact allocation for hql without a word
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        with pytest.raises(ValueError, match="sql scheme only"):
            run_scaling_experiment("hql", [140, 560, 2240], w, P, ReadoutModel(), seeds=2,
                                   allocator="paper")

    @pytest.mark.parametrize("seeds", [1, 0, -2])
    def test_rejects_fewer_than_two_seeds(self, seeds):
        # one seed gave a NaN delta_ci and a RuntimeWarning
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        with pytest.raises(ValueError, match="seeds must be >= 2"):
            run_scaling_experiment("sql", [4, 32, 60], w, P, ReadoutModel(), seeds=seeds)
        with pytest.raises(ValueError, match="seeds must be >= 2"):
            statistical_error_curve("hql", [4, 16], w, P, ReadoutModel(), seeds=seeds)

    def test_statistical_curve_rejects_unknown_scheme(self):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        with pytest.raises(ValueError, match="unknown scheme"):
            statistical_error_curve("bogus", [4], w, P, ReadoutModel())

    def test_logs_one_line_per_budget(self, caplog):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        with caplog.at_level(logging.INFO, logger="wfsim"):
            run_scaling_experiment("hql", [140, 234, 560], w, P, ReadoutModel(), seeds=3,
                                   decoherence=False)
        lines = [r.getMessage() for r in caplog.records if r.name == "wfsim.allocation"]
        assert len(lines) == 3
        for line, (N, n1, n2) in zip(lines, [(140, 10, 14), (234, 13, 18), (560, 20, 28)]):
            assert re.fullmatch(rf"scaling hql N={N} n1={n1} n2={n2} seeds=3 \d+\.\d{{3}}s",
                                line), line


@pytest.mark.parametrize("decoherence", [True, False])
@pytest.mark.parametrize("noise_mode", ["gaussian", "poisson", "none"])
@pytest.mark.parametrize("scheme", ["sql", "hql"])
class TestPerSeedOracle:
    """Planning each budget's acquisition once changes no bit of the results."""

    def test_scaling_rows_bit_identical(self, scheme, noise_mode, decoherence):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        m = ReadoutModel(seed=7, noise_mode=noise_mode)
        table = TABLE_SQL if scheme == "sql" else TABLE_HQL
        budgets = [N for N, _, _ in table[:4]] + ([234] if scheme == "hql" else [])
        rows, slope = run_scaling_experiment(scheme, budgets, w, P, m, seeds=5,
                                             decoherence=decoherence)
        want = _scaling_oracle(scheme, budgets, w, P, m, 5, decoherence)
        assert rows == want
        assert slope == fit_loglog([(r["N"], r["delta"]) for r in want])[0]

    def test_statistical_curve_bit_identical(self, scheme, noise_mode, decoherence):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        m = ReadoutModel(seed=3, noise_mode=noise_mode)
        got = statistical_error_curve(scheme, [4, 16], w, P, m, seeds=6,
                                      decoherence=decoherence)
        assert got == _stat_oracle(scheme, [4, 16], w, P, m, 6, decoherence)


class TestPerSeedOracleErrors:
    def test_paper_allocator_bit_identical(self):
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        budgets = [N for N, _, _ in TABLE_SQL[:4]]
        rows, _ = run_scaling_experiment("sql", budgets, w, P, ReadoutModel(seed=2), seeds=4,
                                         allocator="paper")
        assert rows == _scaling_oracle("sql", budgets, w, P, ReadoutModel(seed=2), 4,
                                       allocator="paper")

    @pytest.mark.parametrize("scheme, p, budgets", [
        # ramsey envelope exp(-(t_s/T2*)^2) = e^-25 at the first budget
        ("sql", SensorParams(T2_star=30e-9), [4, 32, 60]),
        # pdd envelope e^-3.8 at N = 12 (k = 2), e^-46 at N = 140 (k = 7)
        ("hql", SensorParams(T2=20e-6), [12, 140, 560]),
    ])
    def test_decohered_budget_raises_as_per_seed_loop(self, scheme, p, budgets):
        w, m = calibrated_tone(p, 150e-9, 9.6e-6), ReadoutModel(seed=1)
        got = _raised(run_scaling_experiment, scheme, budgets, w, p, m, seeds=3)
        assert got[0] is DecoheredSignalError
        assert got == _raised(_scaling_oracle, scheme, budgets, w, p, m, 3)

    def test_non_finite_estimate_raises_as_the_ensemble_check(self, monkeypatch):
        # the seed loop keeps the ensemble's finiteness check and its message
        w = calibrated_tone(P, 150e-9, 9.6e-6)
        with pytest.raises(ValueError) as want:
            PhaseEnsemble(n1=1, n2=1, estimates=[[math.nan]], grid=SampleGrid(1.0, 1), t_s=1e-7,
                          protocol="ramsey-sql")
        draw, calls = allocation._acquire, itertools.count()
        monkeypatch.setattr(allocation, "_acquire",
                            lambda plan, m, key, counters: draw(plan, m, key, counters)
                            * (math.nan if next(calls) == 2 else 1.0))
        with pytest.raises(ValueError) as got:
            run_scaling_experiment("sql", [4, 32, 60], w, P, ReadoutModel(seed=1), seeds=4)
        assert str(got.value) == str(want.value)

    def test_wrapping_budget_raises_as_per_seed_loop(self):
        # five times the calibrated tone: 2k phi0 = 2.18 rad at N = 140 (k = 7),
        # 4.37 rad at N = 560 (k = 14)
        w, m = calibrated_tone(P, 150e-9, 9.6e-6, c_det=0.2), ReadoutModel(seed=1)
        got = _raised(run_scaling_experiment, "hql", [140, 560, 2240], w, P, m, seeds=3)
        assert got[0] is WfsimError and "atan2 branch" in got[1]
        assert got == _raised(_scaling_oracle, "hql", [140, 560, 2240], w, P, m, 3)
