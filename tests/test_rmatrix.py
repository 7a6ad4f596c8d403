import cmath
import json
import math
import warnings

import numpy as np
import pytest

from qhopf import (CheckReport, OhSinghParams, build_params, build_rmatrix,
                   build_rmatrix_oh_singh, check_quasitriangularity, check_yang_baxter,
                   compare_sector_operators, param_map_oh_singh, proposition1_params,
                   represent_tensor, sector_states)
from qhopf.cli import main
from qhopf.fock import (SectorOperator, _blocks_from_amplitude, _coproduct_splits,
                        _embed_pair, _OhSinghAmplitude, _rel_residual, _RMatrixAmplitude)
from qhopf.hopf import HopfOscillator, TensorElement
from loop_reference import amplitude
from series_reference import series_tensor_terms, split_prefactor


# ------------------------------------------------------------- block structure
def test_vacuum_entry(generic_params):
    r = build_rmatrix(generic_params, 3)
    p = generic_params
    assert r.blocks[0][0, 0] == pytest.approx(cmath.exp(-p.kappa * p.gamma**2))


def test_first_offdiagonal_entry(generic_params):
    # <0,1|R|1,0> = 2 sinh(kappa gamma) X^{-2 gamma (1+gamma)}: the n=1 series
    # term collapses to 2 sinh(kappa gamma) once F(1), lambda^{-2} and the
    # leg exponentials cancel
    p = generic_params
    r = build_rmatrix(p, 3)
    expected = 2 * cmath.sinh(p.kappa * p.gamma) \
        * cmath.exp(-p.kappa * p.gamma * (1 + p.gamma))
    assert r.blocks[1][1, 0] == pytest.approx(expected)


def test_blocks_triangular(generic_params):
    # series terms only move levels from leg 1 to leg 2, so in the ordering
    # |M,0>, ..., |0,M> every entry above the diagonal vanishes
    r = build_rmatrix(generic_params, 5)
    for m, block in r.blocks.items():
        assert np.max(np.abs(np.triu(block, k=1))) == 0


def test_series_cutoff_is_exact(generic_params):
    # terms beyond n = n1 <= M annihilate the sector, so extending the series
    # cutoff changes no block entry
    amp = _RMatrixAmplitude(generic_params, 12)
    for n1 in range(4):
        for n2 in range(3):
            for n in range(n1 + 1, 12):
                assert amplitude(amp, n1, n2, n) == 0
    long_amp = _RMatrixAmplitude(generic_params, 12)
    short = build_rmatrix(generic_params, 5)
    for m, block in short.blocks.items():
        rebuilt = np.zeros_like(block)
        for j, (n1, n2) in enumerate([(m - t, t) for t in range(m + 1)]):
            for n in range(min(12, m - j) + 1):
                rebuilt[min(j + n, m), j] += amplitude(long_amp, n1, n2, n)
        assert np.max(np.abs(rebuilt - block)) == 0


def test_degree_zero(generic_params):
    r = build_rmatrix(generic_params, 4)
    assert r.degree == 0 and r.legs == 2


def test_lambda_override_changes_blocks(generic_params):
    p = generic_params
    r1 = build_rmatrix(p, 3)
    r2 = build_rmatrix(p, 3, lambda_sq=p.lambda_sq * 1.01)
    worst, _ = compare_sector_operators(r1, r2)
    assert worst > 1e-4


def test_symbolic_series_matches_amplitude(generic_params):
    # the normal-ordered series rewriting times the diagonal prefactor
    # reproduces the amplitude-built blocks
    p = generic_params
    alg = HopfOscillator(p)
    series = series_tensor_terms(alg, _RMatrixAmplitude(p, 4), 4)
    rep = represent_tensor(series, p, 4)
    r = build_rmatrix(p, 4)
    for m in range(5):
        states = [(m - t, t) for t in range(m + 1)]
        pref = np.array([cmath.exp(-p.kappa * (t1 + p.gamma) * (t2 + p.gamma))
                         for t1, t2 in states])
        assert np.max(np.abs(pref[:, None] * rep.blocks[m] - r.blocks[m])) < 1e-12


def test_vanishing_bracket_reported():
    # X = e^{kappa/2} with kappa = 2 pi i / 3 makes [3]_X = 0
    p = build_params(complex(0, 2 * math.pi / 3), 0.0, 0.7, 1.0)
    with pytest.raises(ValueError, match=r"\[3\]_X"):
        build_rmatrix(p, 4)


# -------------------------------------------------------------------- payload
def test_payload_round_trip(generic_params):
    r = build_rmatrix(generic_params, 3)
    payload = r.to_payload(generic_params.to_dict())
    assert payload["legs"] == 2 and payload["degree"] == 0
    assert payload["sectors"][2]["rows"] == 3
    back = SectorOperator.from_payload(payload)
    worst, _ = compare_sector_operators(r, back)
    assert worst == 0


def test_compare_refuses_different_sector_sets(generic_params):
    # a comparison over no common sector is not a perfect match
    r = build_rmatrix(generic_params, 2)
    with pytest.raises(ValueError, match=r"sector sets differ: \[0, 1, 2\] and \[\]"):
        compare_sector_operators(r, SectorOperator(2, 0, {}))
    with pytest.raises(ValueError, match="sector sets differ"):
        compare_sector_operators(r, build_rmatrix(generic_params, 3))


def test_compare_refuses_different_block_shapes(generic_params):
    r = build_rmatrix(generic_params, 2)
    other = SectorOperator(2, 0, {**r.blocks, 1: np.zeros((3, 3), dtype=complex)})
    with pytest.raises(ValueError,
                       match=r"sector 1 blocks differ in shape: \(2, 2\) and \(3, 3\)"):
        compare_sector_operators(r, other)


# ----------------------------------------------------------- quasitriangularity
def test_quasitriangularity_generic(generic_params):
    rep = check_quasitriangularity(generic_params, 6)
    assert rep.passed, [c.name for c in rep.failures()]
    assert rep.max_residual() < 1e-9


def test_quasitriangularity_hermitian_with_kappa_sum():
    p = proposition1_params(0.6, 0.8, 0, 1.0, kappa_sum=0.4)
    rep = check_quasitriangularity(p, 5)
    assert rep.passed
    assert rep.max_residual() < 1e-9


def test_perturbed_lambda_negative_control(generic_params):
    p = generic_params
    rep = check_quasitriangularity(p, 4, lambda_sq=p.lambda_sq * 1.01)
    worst = max(c.residual for c in rep.checks if c.name.startswith("intertwiner-a["))
    assert worst > 1e-4


def test_series_coefficient_control_fails_both_splits(monkeypatch, generic_params):
    # the 1% lambda^2 control scales c_n by t^n, a conjugation by t^{-N} on
    # leg 1 that cancels in R13 R23 and R13 R12; a 1% change of c_2 alone
    # does not, so both splits must see it
    init = _RMatrixAmplitude.__init__

    def perturbed(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.series[2] *= 1.01

    monkeypatch.setattr(_RMatrixAmplitude, "__init__", perturbed)
    got = {c.name: c.residual for c in check_quasitriangularity(generic_params, 4).checks}
    for side in ("left", "right"):
        for m in range(2, 5):
            assert got[f"coproduct-split-{side}[M={m}]"] > 1e-4


SPLIT_PACKS = {"generic-real": build_params(0.5, 0.1, 0.7, 1.0),
               "generic-complex": build_params(0.5 + 0.2j, 0.05 + 0.05j, 0.7 - 0.3j,
                                               1.2 + 0.2j),
               "proposition1": proposition1_params(0.5, 0.8, 0, 1.0)}


@pytest.mark.parametrize("pack", sorted(SPLIT_PACKS))
def test_coproduct_splits_equal_symbolic_reference(pack):
    # the splits built from the coproduct(a) and coproduct(adag) blocks
    # against the symbolic coproduct of the symbolic series, represented, with
    # the split prefactor applied per target state
    p = SPLIT_PACKS[pack]
    m_max = 8
    alg = HopfOscillator(p)
    amp = _RMatrixAmplitude(p, m_max)
    d_a, d_adag = (represent_tensor(alg.coproduct(h), p, m_max)
                   for h in (alg.lowering(), alg.raising()))
    got = list(_coproduct_splits(amp, d_a, d_adag, m_max))
    assert len(got) == m_max + 1
    series = series_tensor_terms(alg, amp, m_max)
    for leg in (0, 1):
        want = represent_tensor(alg.coproduct_on_leg(series, leg), p, m_max)
        for m in range(m_max + 1):
            want_m = want.blocks[m] * split_prefactor(p, m, leg)[:, None]
            assert _rel_residual(got[m][leg], want_m) <= 1e-13, (leg, m)


def test_quasitriangularity_represents_three_coproducts(monkeypatch, generic_params):
    # the splits reuse the coproduct(a) and coproduct(adag) blocks of the
    # intertwiner probes: no symbolic coproduct of the series
    import qhopf.fock as fock

    calls = {"represent_tensor": 0, "coproduct_on_leg": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fock, "represent_tensor",
                        counted("represent_tensor", fock.represent_tensor))
    monkeypatch.setattr(HopfOscillator, "coproduct_on_leg",
                        counted("coproduct_on_leg", HopfOscillator.coproduct_on_leg))
    assert check_quasitriangularity(generic_params, 6).passed
    assert calls == {"represent_tensor": 3, "coproduct_on_leg": 0}


def test_intertwiner_on_number_is_commutant(generic_params):
    # coproduct^op(N) = coproduct(N) is scalar per sector, so the
    # intertwiner relation for N reduces to [R, coproduct(N)] = 0 exactly
    rep = check_quasitriangularity(generic_params, 4)
    for c in rep.checks:
        if c.name.startswith("intertwiner-N["):
            assert c.residual < 1e-12


# ------------------------------------------------------------------ Yang-Baxter
def test_yang_baxter_generic(generic_params):
    rep = check_yang_baxter(build_rmatrix(generic_params, 6), 6)
    assert rep.passed
    assert rep.max_residual() < 1e-8


def test_yang_baxter_refuses_a_sector_cap_past_r(generic_params):
    with pytest.raises(ValueError, match=r"R has no block for sector 4; Yang-Baxter up to "
                                         r"sector 5 needs sectors 0\.\.5"):
        check_yang_baxter(build_rmatrix(generic_params, 3), 5)


@pytest.mark.parametrize("operator, message", [
    (SectorOperator(3, 0, {0: np.eye(1), 1: np.eye(3)}),
     "only a 2-leg degree-0 operator embeds into 3 legs, not a 3-leg degree-0 one"),
    (SectorOperator(2, 1, {0: np.ones((2, 1)), 1: np.ones((3, 2))}),
     "only a 2-leg degree-0 operator embeds into 3 legs, not a 2-leg degree-1 one"),
    (SectorOperator(2, 0, {0: np.eye(1), 2: np.eye(3)}),
     "cannot embed: no block for sector 1 below sector 2"),
    (SectorOperator(2, 0, {0: np.eye(1), 1: np.eye(3)}),
     r"cannot embed: the sector 1 block has shape \(3, 3\), not \(2, 2\)"),
], ids=["three-legs", "degree-one", "missing-sector", "wrong-shape"])
def test_embeddings_refuse_what_they_cannot_embed(operator, message):
    with pytest.raises(ValueError, match=message):
        operator.embeddings
    with pytest.raises(ValueError, match=message):
        check_yang_baxter(operator, 0)


def test_yang_baxter_vacuum_scalar(generic_params):
    p = generic_params
    amp = _RMatrixAmplitude(p, 1)
    scalar = amplitude(amp, 0, 0, 0)
    assert scalar == pytest.approx(cmath.exp(-p.kappa * p.gamma**2))


def test_yang_baxter_oh_singh_build():
    rep = check_yang_baxter(build_rmatrix_oh_singh(OhSinghParams(0.5, 1.2, 0.3, 0), 6), 6)
    assert rep.passed
    assert rep.max_residual() < 1e-8


# ---------------------------------------------------------- real-form identity
def test_real_form_equivalence_spot():
    o = OhSinghParams(0.5, 1.2, 0.3, 0)
    r_os = build_rmatrix_oh_singh(o, 6)
    r_gen = build_rmatrix(param_map_oh_singh(o), 6)
    worst, per = compare_sector_operators(r_os, r_gen)
    assert worst < 1e-10
    assert set(per) == set(range(7))


def test_oh_singh_vacuum_is_scalar_prefactor():
    o = OhSinghParams(0.5, 1.2, 0.3, 0)
    amp = _OhSinghAmplitude(o, 2)
    assert amplitude(amp, 0, 0, 0) == pytest.approx(amp.scalar)


def test_oh_singh_k_parity_flips_series_sign():
    o0 = OhSinghParams(0.5, 1.2, 0.3, 0)
    o1 = OhSinghParams(0.5, 1.2, 0.3, 1)
    a0 = _OhSinghAmplitude(o0, 2)
    a1 = _OhSinghAmplitude(o1, 2)
    assert a1.series[1] == pytest.approx(-a0.series[1])


def test_quasitriangularity_on_mapped_oh_singh_sets():
    for o in [OhSinghParams(0.5, 1.2, 0.3, 0), OhSinghParams(0.3, 0.8, 0.0, 1)]:
        p = param_map_oh_singh(o)
        rep = check_quasitriangularity(p, 4)
        assert rep.passed
        assert rep.max_residual() < 1e-9


# ------------------------------------------------- inverse-free, any sector cap
HIGH_M_PACKS = [
    build_params(0.5 + 0.2j, 0.05 + 0.05j, 0.7 - 0.3j, 1.2 + 0.2j),
    proposition1_params(0.5, 0.8, 0, 1.0),
]


@pytest.mark.parametrize("m_max", [12, 16])
@pytest.mark.parametrize("pack", range(len(HIGH_M_PACKS)))
def test_quasitriangularity_and_yang_baxter_at_high_sector(pack, m_max):
    # R_M grows ill-conditioned with M (cond(R_10) > 1e14 on these packs);
    # the inverse-free intertwiner does not care
    p = HIGH_M_PACKS[pack]
    rep = check_quasitriangularity(p, m_max)
    assert rep.passed, [c.name for c in rep.failures()]
    assert {c.name for c in rep.checks} >= {f"intertwiner-a[M={m_max}]",
                                            f"intertwiner-adag[M={m_max - 1}]",
                                            f"intertwiner-N[M={m_max}]"}
    assert check_yang_baxter(build_rmatrix(p, m_max), m_max).passed


def reference_twist(t):
    """Swap the two legs symbolically: x (x) y -> y (x) x."""
    swap = [({1: 1.0}, 0j), ({0: 1.0}, 0j)]
    return TensorElement(t.algebra, 2, {(key[1], key[0]): poly.substitute(swap, 2)
                                        for key, poly in t.terms.items()})


@pytest.mark.parametrize("pack", ["generic", "complex", "q-oscillator"])
def test_intertwiner_basis_flip_equals_symbolic_twist(pack, generic_params):
    # coproduct^op(h) as a reversed sector basis gives, bit for bit, the
    # residuals of the represented symbolic twist
    m_max = 12
    p = {"generic": generic_params, "complex": HIGH_M_PACKS[0],
         "q-oscillator": param_map_oh_singh(OhSinghParams(0.5, 1.2, 0.3, 0))}[pack]
    got = {c.name: c.residual for c in check_quasitriangularity(p, m_max).checks
           if c.name.startswith("intertwiner-")}
    alg = HopfOscillator(p)
    r2 = build_rmatrix(p, m_max)
    want = {}
    for name, h, deg in [("a", alg.lowering(), -1), ("adag", alg.raising(), +1),
                         ("N", alg.number_op(), 0)]:
        dh = represent_tensor(alg.coproduct(h), p, m_max)
        th = represent_tensor(reference_twist(alg.coproduct(h)), p, m_max)
        for m in range(max(0, -deg), min(m_max, m_max - deg) + 1):
            want[f"intertwiner-{name}[M={m}]"] = _rel_residual(
                r2.blocks[m + deg] @ dh.blocks[m], th.blocks[m] @ r2.blocks[m])
    assert got == want


def test_quasitriangularity_needs_no_dense_inverse(monkeypatch, generic_params):
    def refuse(*args, **kwargs):
        raise AssertionError("dense inverse taken")

    for name in ("inv", "cond", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rep = check_quasitriangularity(generic_params, 6)
    assert rep.passed
    assert sum(c.name.startswith("intertwiner-") for c in rep.checks) == 3 * 7 - 2


def reference_embed_loop(r2, pair, m_max):
    """3-leg embedding of the 2-leg blocks ``r2``, entry by entry."""
    i, j = pair
    blocks = {}
    for m in range(m_max + 1):
        states = sector_states(m, 3)
        index = {st: t for t, st in enumerate(states)}
        block = np.zeros((len(states), len(states)), dtype=complex)
        for col, st in enumerate(states):
            sub = st[i] + st[j]
            column = r2.blocks[sub][:, st[j]]
            target = list(st)
            for row in range(sub + 1):
                target[i], target[j] = sub - row, row
                block[index[tuple(target)], col] = column[row]
        blocks[m] = block
    return blocks


def reference_embed_pair(amp, pair, m_max):
    """3-leg embedding evaluated entrywise from the amplitude."""
    i, j = pair
    blocks = {}
    for m in range(m_max + 1):
        states = sector_states(m, 3)
        block = np.zeros((len(states), len(states)), dtype=complex)
        for col, st in enumerate(states):
            for n in range(st[i] + 1):
                target = list(st)
                target[i] -= n
                target[j] += n
                block[states.index(tuple(target)), col] += amplitude(amp, st[i], st[j], n)
        blocks[m] = block
    return blocks


@pytest.mark.parametrize("pair", [(0, 1), (0, 2), (1, 2)])
@pytest.mark.parametrize("form", ["general", "oh-singh"])
def test_embed_pair_equals_amplitude_loop(pair, form):
    m_max = 12
    if form == "general":
        amp = _RMatrixAmplitude(build_params(0.5 + 0.2j, 0.05 + 0.05j, 0.7 - 0.3j,
                                             1.2 + 0.2j), m_max)
    else:
        amp = _OhSinghAmplitude(OhSinghParams(0.5, 1.2, 0.3, 0), m_max)
    r2 = _blocks_from_amplitude(amp, m_max)
    got = _embed_pair(r2, pair, m_max)
    want = reference_embed_pair(amp, pair, m_max)
    loop = reference_embed_loop(r2, pair, m_max)
    for m in range(m_max + 1):
        assert np.array_equal(got.blocks[m], want[m])
        assert np.array_equal(got.blocks[m], loop[m])


# --------------------------------------------------------- residual overflow
def test_rel_residual_survives_norm_overflow():
    a = np.array([[1e200, 2e200j], [0.0, -3e199]])
    b = a * (1 + 1e-15)
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(a))
    assert _rel_residual(a, b) == pytest.approx(_rel_residual(a * 1e-200, b * 1e-200))
    b[1, 0] = np.inf
    assert _rel_residual(a, b) == math.inf


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_overflowing_blocks_give_strict_json(capsys):
    # acceptance set proposition1_params(0.3, 2.0, 2, 1.5): block norms
    # overflow while every entry stays finite, and numpy must not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify-rmatrix", "--kappa1=0.15", "--kappa2=-0.15", "--gamma1=2.0",
                     "--k=2", "--g0=1.5", "--max-sector=8", "--format", "json"])
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_refuse_constant)
    assert code == 0 and report["overall"] == "pass"
    assert max(c["residual"] for c in report["checks"]) < 1e-12


def test_non_finite_residual_is_refused_not_reported():
    # G(0) = -1e308 makes the series amplitudes overflow to inf in the
    # library, with numpy warnings silenced: the check raises instead of
    # reporting an inf residual
    xi = 0.5 - 2e-12
    p = build_params(0.5, 2e-12, complex(2e-12, -math.pi / (2 * xi)), -1e308)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="residual"):
        check_quasitriangularity(p, 2)


def test_report_refuses_a_non_finite_residual():
    rep = CheckReport()
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(FloatingPointError):
            rep.add("probe", False, bad)
    assert rep.checks == []


# ------------------------------------------------------------ sector cap edge
VANISHING_3 = ["--kappa1", repr(2 * math.pi / 3) + "i", "--kappa2", "0",
               "--gamma1", "0.7", "--g0", "1"]


def test_bracket_beyond_the_cap_does_not_stop_the_run(capsys):
    # [3]_X = 0 on this pack, but sectors M <= 2 never reach n = 3
    assert main(["verify-rmatrix", *VANISHING_3, "--max-sector", "2"]) == 0
    assert "overall: pass" in capsys.readouterr().out


def test_bracket_inside_the_cap_is_a_parameter_error(capsys):
    assert main(["verify-rmatrix", *VANISHING_3, "--max-sector", "3"]) == 2
    assert "error: [3]_X vanishes" in capsys.readouterr().err
