"""Command-line front end: ``qhopf <subcommand>``.

Subcommands
-----------
classify        Hermiticity/family classification of a parameter point.
verify-hopf     Symbolic Hopf-axiom suite plus the coefficient and G chains.
verify-rmatrix  Quasitriangularity and Yang-Baxter checks per sector.
tabulate        CSV table of G(n), F(n) and the coproduct coefficients.
convert-params  Dictionary between (kappa1, kappa2, gamma, G0) and
                (eps | q, alpha, beta, k).

Parameters are accepted either in oscillator form (--kappa1 --kappa2
--gamma1 [--gamma2 | --k] --g0) or in q-oscillator form (--eps | --q
--alpha --beta --k); mixing the two styles is a usage error.  ``classify``
additionally accepts the real-decomposition form, which takes only --xi
--eta --gamma1 --gamma2 --g0.  A JSON --config file may supply the same
keys; explicit flags win.  ``verify-rmatrix --max-sector`` must lie in
0..MAX_SECTOR, as --max-order and --n-max must lie in their ranges; a value
outside is a usage error.  Exit codes: 0 all checks passed, 1 an identity
was judged false, 2 a usage error, or a pack or value that is not finite or
exceeds double precision or the exponent cap.
"""

import argparse
import cmath
import functools
import json
import math
import sys

from .report import CheckReport

# the largest --max-sector: the 3-leg blocks of sectors 0..M hold about
# M^5/20 entries, and at M = 32 a run takes about 1.5 s and 220 MB
MAX_SECTOR = 32

_OSC_KEYS = ("kappa1", "kappa2", "gamma1", "gamma2", "g0")
_OHS_KEYS = ("eps", "q", "alpha", "beta")
_HERM_KEYS = ("xi", "eta")


class UsageError(Exception):
    pass


def _to_complex(vals, key):
    """Parameter ``key`` as a finite complex number, or None when not given."""
    value = vals.get(key)
    if value is None:
        return None
    # a JSON true or false, alone or in an [re, im] pair, is a bool, which
    # Python would take for the int 1 or 0
    parts = value if isinstance(value, (list, tuple)) else [value]
    if any(isinstance(v, bool) for v in parts):
        raise UsageError(f"cannot parse complex value {value!r}")
    if isinstance(value, (int, float, complex)):
        z = complex(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            z = complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"cannot parse complex value {value!r}") from exc
    elif isinstance(value, str):
        text = value.replace(" ", "")
        if text.endswith("i"):
            text = text[:-1] + "j"
        try:
            z = complex(text)
        except ValueError as exc:
            raise UsageError(f"cannot parse complex value {value!r}") from exc
    else:
        raise UsageError(f"cannot parse complex value {value!r}")
    if not cmath.isfinite(z):
        raise UsageError(f"--{key} must be finite, got {value}")
    return z


def _to_real(vals, key):
    z = _to_complex(vals, key)
    if z is None:
        return None
    if z.imag != 0:
        raise UsageError(f"expected a real value, got {vals.get(key)!r}")
    return z.real


def _to_int(vals, key):
    """Parameter ``key`` as an int, or None when not given.  The flags are
    parsed as int already; a config value must be integral, not truncated."""
    value = vals.get(key)
    if value is None or type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise UsageError(f"config key {key!r} must be an integer, got {value!r}")


def _int_flag(vals, key, default, top=None):
    """An integer flag or config key; 0 is a valid value, negatives are not,
    and neither are values above ``top`` when it is given."""
    value = _to_int(vals, key)
    if value is None:
        return default
    flag = "--" + key.replace("_", "-")
    if value < 0:
        raise UsageError(f"{flag} must be non-negative, got {value}")
    if top is not None and value > top:
        raise UsageError(f"{flag} must lie in 0..{top}")
    return value


def _detect_style(vals):
    # gamma1/gamma2 belong to the oscillator and hermiticity styles; in the
    # q-oscillator style gamma is derived, so giving both is also mixing
    osc = [k for k in _OSC_KEYS if k in vals]
    ohs = [k for k in _OHS_KEYS if k in vals]
    herm = [k for k in _HERM_KEYS if k in vals]
    if ohs and (osc or herm):
        raise UsageError("oscillator-style and q-oscillator-style parameters mixed")
    if ohs:
        return "ohsingh"
    if herm:
        # the Hermiticity form takes --xi --eta --gamma1 --gamma2 --g0 only
        extra = [f"--{k}" for k in ("kappa1", "kappa2", "k") if k in vals]
        if extra:
            raise UsageError(f"Hermiticity-form parameters (--xi/--eta) mixed with "
                             f"{', '.join(extra)}")
        return "hermiticity"
    if osc:
        return "oscillator"
    raise UsageError("no parameters given (try --kappa1/... or --eps/... )")


def _resolve_ohsingh(vals):
    eps = _to_real(vals, "eps")
    q = _to_real(vals, "q")
    if eps is not None and q is not None:
        raise UsageError("give either --eps or --q, not both")
    if q is not None:
        if q <= 0:
            raise UsageError("q must be positive")
        eps = math.log(q)
    if eps is None or vals.get("alpha") is None:
        raise UsageError("q-oscillator form needs --eps (or --q) and --alpha")
    from .constraints import OhSinghParams

    try:
        return OhSinghParams(eps, _to_real(vals, "alpha"),
                             _to_real(vals, "beta") or 0.0,
                             _to_int(vals, "k") or 0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_oscillator(vals):
    kappa1 = _to_complex(vals, "kappa1")
    kappa2 = _to_complex(vals, "kappa2")
    if kappa1 is None or kappa2 is None:
        raise UsageError("oscillator form needs --kappa1 and --kappa2")
    gamma1 = _to_real(vals, "gamma1")
    gamma1 = 0.0 if gamma1 is None else gamma1
    gamma2 = _to_real(vals, "gamma2")
    k = _to_int(vals, "k")
    if gamma2 is not None and k is not None:
        raise UsageError("give either --gamma2 or --k, not both")
    if gamma2 is None:
        if k is not None:
            xi = (kappa1 - kappa2).real
            if xi == 0:
                raise UsageError("--k needs a nonzero real part of kappa1 - kappa2")
            gamma2 = (2 * k + 1) * math.pi / (2 * xi)
        else:
            gamma2 = 0.0
    g0 = _to_complex(vals, "g0")
    g0 = 1.0 + 0j if g0 is None else g0
    from .hopf import build_params

    try:
        return build_params(kappa1, kappa2, complex(gamma1, gamma2), g0)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolve(vals, oh_singh=False):
    """The q-oscillator pack (None in oscillator form) and the parameter pack
    it maps to.  Under ``oh_singh`` the parameters must be in q-oscillator
    form."""
    style = _detect_style(vals)
    if style == "ohsingh" or oh_singh:
        from .constraints import param_map_oh_singh

        o = _resolve_ohsingh(vals)
        return o, param_map_oh_singh(o)
    if style == "oscillator":
        return None, _resolve_oscillator(vals)
    raise UsageError("this subcommand needs oscillator or q-oscillator parameters")


# ------------------------------------------------------------------ commands
def _cmd_classify(vals):
    style = _detect_style(vals)
    from .constraints import (HermiticityInput, classify_family, classify_hermiticity,
                              pointwise_reality)

    if style == "hermiticity":
        h = HermiticityInput(_to_real(vals, "xi") or 0.0,
                             _to_real(vals, "eta") or 0.0,
                             _to_real(vals, "gamma1") or 0.0,
                             _to_real(vals, "gamma2") or 0.0)
        g0 = _to_real(vals, "g0")
        g0 = 1.0 if g0 is None else g0
        try:
            verdict = classify_hermiticity(h, g_slope=g0)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        rep = CheckReport(params={"xi": h.xi, "eta": h.eta, "gamma1": h.gamma1,
                                  "gamma2": h.gamma2, "g0": g0})
        rep.params["verdict"] = verdict.to_dict()
        rep.add("hermiticity-classification", True, 0.0,
                f"family={verdict.family} hermitian={verdict.hermitian}")
        worst, witness = pointwise_reality(h, g0)
        agree = verdict.hermitian == (worst <= 1e-10)
        rep.add("classification-pointwise-agreement", agree, worst,
                f"max |Im G(n)| / max |G(n)| at n={witness}")
        return rep
    _, params = _resolve(vals)
    verdict = classify_family(params)
    rep = CheckReport(params=params.to_dict())
    rep.params["verdict"] = verdict.to_dict()
    rep.add("family-classification", True, 0.0,
            f"family={verdict.family} hermitian={verdict.hermitian}")
    return rep


def _cmd_verify_hopf(vals):
    max_order = _int_flag(vals, "max_order", 6, top=12)
    _, params = _resolve(vals)
    from .constraints import verify_ci_conditions, verify_g_recursion
    from .hopf import HopfOscillator

    algebra = HopfOscillator(params)
    rep = CheckReport(params=params.to_dict())
    rep.extend(algebra.check_axioms(), prefix="hopf/")
    rep.extend(verify_ci_conditions(params, max_order=max_order), prefix="coeff/")
    rep.extend(verify_g_recursion(params, max_order=min(max_order + 2, 10)),
               prefix="g/")
    return rep


def _cmd_verify_rmatrix(vals, oh_singh_mode, dump_path):
    m_max = _int_flag(vals, "max_sector", 6, top=MAX_SECTOR)
    # each subcommand loads its layers only after the checks that need none,
    # so a run refused for its sector cap or its parameters loads neither
    # numpy nor the R-matrix layer, which load for verify-rmatrix alone
    o, params = _resolve(vals, oh_singh=oh_singh_mode)
    if params.branch != "generic":
        raise UsageError(f"the R-matrix needs the generic branch, got {params.branch}")
    if oh_singh_mode:
        rep = CheckReport(params={"oh_singh": o.to_dict(), "mapped": params.to_dict(),
                                  "max_sector": m_max})
    else:
        rep = CheckReport(params={**params.to_dict(), "max_sector": m_max})
    import numpy as np

    from .fock import (build_rmatrix_oh_singh, check_quasitriangularity, check_yang_baxter,
                       compare_sector_operators)

    # a numpy overflow, division by zero or invalid operation raises
    # FloatingPointError, an ArithmeticError, instead of warning
    with np.errstate(all="raise", under="ignore"):
        if oh_singh_mode:
            r = build_rmatrix_oh_singh(o, m_max)
            # qt/ judges the general-form R, the one compared with r here
            qt = check_quasitriangularity(params, m_max)
            _, per = compare_sector_operators(r, qt.rmatrix)
            for m, res in per.items():
                rep.add(f"realform-equivalence[M={m}]", res <= 1e-10, res)
        else:
            qt = check_quasitriangularity(params, m_max)
            r = qt.rmatrix
        rep.extend(qt, prefix="qt/")
        # under --oh-singh this frees the general-form R and its embeddings
        # before r is embedded
        del qt
        rep.extend(check_yang_baxter(r, m_max), prefix="ybe/")
        if dump_path:
            payload = r.to_payload(rep.params)
            try:
                with open(dump_path, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh, indent=1)
            except OSError as exc:
                raise UsageError(f"cannot write dump {dump_path}: {exc}") from exc
    return rep


def _cmd_tabulate(vals, out):
    # where no exponent reaches the cap, nothing else bounds the row count
    n_max = _int_flag(vals, "n_max", 10, top=10_000)
    _, params = _resolve(vals)
    from .hopf import (coproduct_weights, g_function, structure_function,
                       structure_function_values)

    cols = ([("g", g_function(params)), ("f", structure_function(params))]
            + coproduct_weights(params).named())
    table = [[fn(n) for _, fn in cols] for n in range(n_max + 1)]
    f_sums = structure_function_values(params, n_max)
    # plain complex arithmetic overflows to inf or nan without raising
    if not all(cmath.isfinite(z) for row in (f_sums, *table) for z in row):
        raise FloatingPointError("a tabulated value is not finite")
    # the closed-form F against the telescoped partial sums of G
    worst, worst_n = 0.0, 0
    for n, (row, f_sum) in enumerate(zip(table, f_sums)):
        r = abs(row[1] - f_sum) / max(abs(f_sum), 1.0)
        if r > worst:
            worst, worst_n = r, n
    rep = CheckReport(params=params.to_dict())
    ok = worst <= 1e-9
    rep.add("tabulate", ok, worst,
            f"{n_max + 1} rows" + ("" if ok else f", worst |F - sum G| at n={worst_n}"))
    header = ["n"]
    for name, _ in cols:
        header += [f"{name}_re", f"{name}_im"]
    lines = [",".join(header)]
    for n, row in enumerate(table):
        cells = [str(n)]
        for z in row:
            cells += [f"{z.real:.17g}", f"{z.imag:.17g}"]
        lines.append(",".join(cells))
    print("\n".join(lines), file=out)
    return rep


def _cmd_convert(vals):
    o, params = _resolve(vals)
    from .constraints import param_map_inverse, param_map_oh_singh

    if o is not None:
        rep = CheckReport(params={"from": o.to_dict(), "to": params.to_dict()})
        back = param_map_inverse(params)
        r = max(abs(back.eps - o.eps), abs(back.alpha - o.alpha),
                abs(back.beta - o.beta), abs(back.k - o.k))
    else:
        try:
            o = param_map_inverse(params)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        rep = CheckReport(params={"from": params.to_dict(), "to": o.to_dict()})
        again = param_map_oh_singh(o)
        r = max(abs(again.kappa - params.kappa), abs(again.gamma - params.gamma),
                abs(again.g0 - params.g0))
    rep.add("round-trip", r <= 1e-9, r)
    return rep


# -------------------------------------------------------------------- parser
def _add_param_flags(sp):
    for key in ("kappa1", "kappa2", "g0"):
        sp.add_argument(f"--{key}", type=str, default=None)
    for key in ("gamma1", "gamma2", "xi", "eta", "eps", "q", "alpha", "beta"):
        sp.add_argument(f"--{key}", type=float, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--config", type=str, default=None,
                    help="JSON file providing the same keys; flags override it")
    sp.add_argument("--format", choices=("text", "json"), default="text")


@functools.cache
def build_parser():
    """The ``qhopf`` parser, built on first use and kept for the process."""
    # the flags every subcommand shares, added once and copied into each
    common = argparse.ArgumentParser(add_help=False)
    _add_param_flags(common)
    parser = argparse.ArgumentParser(
        prog="qhopf",
        description="verification toolkit for deformed oscillator Hopf algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("classify", parents=[common], help="hermiticity / family classification")

    sp = sub.add_parser("verify-hopf", parents=[common],
                        help="symbolic Hopf-axiom and chain checks")
    sp.add_argument("--max-order", dest="max_order", type=int, default=None)

    sp = sub.add_parser("verify-rmatrix", parents=[common],
                        help="quasitriangularity and Yang-Baxter checks")
    sp.add_argument("--max-sector", dest="max_sector", type=int, default=None)
    sp.add_argument("--oh-singh", dest="oh_singh", action="store_true",
                    help="build the R-matrix from the q-oscillator form")
    sp.add_argument("--dump-blocks", dest="dump_blocks", type=str, default=None,
                    help="write the R-matrix sector blocks to a JSON file")

    sp = sub.add_parser("tabulate", parents=[common],
                        help="CSV table of G, F and the coefficients")
    sp.add_argument("--n-max", dest="n_max", type=int, default=None)

    sub.add_parser("convert-params", parents=[common], help="parameter dictionary, both ways")
    return parser


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    return config


def main(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        # the flags given over the keys of the optional JSON config
        vals = {k: v for k, v in (*_load_config(ns.config).items(), *vars(ns).items())
                if v is not None}
        if ns.command == "classify":
            rep = _cmd_classify(vals)
        elif ns.command == "verify-hopf":
            rep = _cmd_verify_hopf(vals)
        elif ns.command == "verify-rmatrix":
            rep = _cmd_verify_rmatrix(vals, ns.oh_singh, ns.dump_blocks)
        elif ns.command == "tabulate":
            rep = _cmd_tabulate(vals, sys.stdout)
        else:
            rep = _cmd_convert(vals)
    except (UsageError, ValueError) as exc:
        # usage errors, and parameter-level failures surfaced by the library
        # (vanishing series normalization, out-of-image inversions, ...)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # extreme but well-formed parameters overflow cosh/sinh/exp, a numpy
        # array or the exponent cap, divide by an underflowed zero, leave an
        # antidifference that cannot close or a residual that is not finite
        print(f"error: parameters out of floating-point range ({exc})", file=sys.stderr)
        return 2
    if ns.format == "json":
        print(rep.to_json())
    else:
        print("\n".join(rep.summary_lines()))
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
