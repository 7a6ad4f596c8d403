"""Parameter packs of the benchmark's input slots.

Every slot has a fixed base pack.  Repetition j of slot i gets the base
shifted by a small amount drawn from ``random.Random("<seed>/<slot>/<j>")``
along the slot's natural coordinates:

* Proposition 1 packs: (xi, gamma1, g0, kappa_sum); k stays fixed and a
  zero kappa_sum stays zero (kappa1 = -kappa2 exactly);
* q-oscillator packs: (eps, alpha, beta); k stays fixed;
* generic packs: (kappa1, kappa2, gamma, g0), complex parts included where
  the base is complex; a zero gamma stays zero and kappa1 = kappa2 stays
  equal, so the branch is kept.

The shift keeps the branch and which exponents coincide, so a slot does the
same work on every repetition while no value-keyed cache can hit.  Slots
marked ``fixed`` (the known-fault operations) draw their shift from
``"fixed/<slot>/<j>"`` instead, so their inputs do not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

SHIFT = 0.02


@dataclass(frozen=True)
class Prop1:
    """kappa1 = (kappa_sum + xi)/2, kappa2 = (kappa_sum - xi)/2,
    gamma = gamma1 + i (2k+1) pi / (2 xi)."""

    xi: float
    gamma1: float
    k: int
    g0: float
    kappa_sum: float = 0.0

    def shifted(self, rng):
        return replace(self, xi=self.xi + _u(rng), gamma1=self.gamma1 + _u(rng),
                       g0=self.g0 + _u(rng),
                       kappa_sum=self.kappa_sum + _u(rng) if self.kappa_sum else 0.0)

    @property
    def kappa1(self):
        return (self.kappa_sum + self.xi) / 2

    @property
    def kappa2(self):
        return (self.kappa_sum - self.xi) / 2

    @property
    def gamma2(self):
        return (2 * self.k + 1) * math.pi / (2 * self.xi)

    def args(self):
        return [f"--kappa1={self.kappa1!r}", f"--kappa2={self.kappa2!r}",
                f"--gamma1={self.gamma1!r}", f"--k={self.k}", f"--g0={self.g0!r}"]

    def herm_args(self):
        return [f"--xi={self.xi!r}", "--eta=0", f"--gamma1={self.gamma1!r}",
                f"--gamma2={self.gamma2!r}", f"--g0={self.g0!r}"]

    def osc(self):
        """(kappa1, kappa2, gamma, g0) as the CLI derives them."""
        return (complex(self.kappa1), complex(self.kappa2),
                complex(self.gamma1, self.gamma2), complex(self.g0))


@dataclass(frozen=True)
class QOsc:
    eps: float
    alpha: float
    beta: float
    k: int

    def shifted(self, rng):
        return replace(self, eps=self.eps + _u(rng), alpha=self.alpha + _u(rng),
                       beta=self.beta + _u(rng))

    def args(self):
        return [f"--eps={self.eps!r}", f"--alpha={self.alpha!r}",
                f"--beta={self.beta!r}", f"--k={self.k}"]

    def osc(self):
        """The forward dictionary, from the q-oscillator formulas."""
        xi = self.alpha * self.eps
        gamma = complex((2 * self.beta + 1) / (2 * self.alpha),
                        (2 * self.k + 1) * math.pi / (2 * xi))
        g0 = math.cosh(self.eps * (2 * self.beta + 1) / 2) / math.cosh(self.eps / 2)
        return complex(xi / 2), complex(-xi / 2), gamma, complex(g0)


@dataclass(frozen=True)
class Generic:
    kappa1: complex
    kappa2: complex
    gamma: complex
    g0: complex

    def shifted(self, rng):
        k1 = self.kappa1 + _z(rng, self.kappa1)
        k2 = k1 if self.kappa2 == self.kappa1 else self.kappa2 + _z(rng, self.kappa2)
        gamma = 0j if self.gamma == 0 else self.gamma + _z(rng, self.gamma)
        return Generic(k1, k2, gamma, self.g0 + _z(rng, self.g0))

    def args(self):
        return [f"--kappa1={_c(self.kappa1)}", f"--kappa2={_c(self.kappa2)}",
                f"--gamma1={self.gamma.real!r}", f"--gamma2={self.gamma.imag!r}",
                f"--g0={_c(self.g0)}"]

    def osc(self):
        return (complex(self.kappa1), complex(self.kappa2), complex(self.gamma),
                complex(self.g0))


def _u(rng):
    return rng.uniform(-SHIFT, SHIFT)


def _z(rng, base):
    re = _u(rng)
    im = _u(rng) if complex(base).imag else 0.0
    return complex(re, im)


def _c(z):
    z = complex(z)
    return repr(z.real) if z.imag == 0 else repr(z)


def pack_at(base, seed, slot, j, fixed=False):
    """Repetition ``j`` of ``slot``: the base pack under its seeded shift."""
    key = f"fixed/{slot}/{j}" if fixed else f"{seed}/{slot}/{j}"
    return base.shifted(random.Random(key))


# -------------------------------------------------------------- base packs
P1_K0 = Prop1(xi=0.6, gamma1=0.8, k=0, g0=1.0)
P1_K1 = Prop1(xi=0.5, gamma1=0.4, k=1, g0=0.9, kappa_sum=0.2)
P1_KM1 = Prop1(xi=0.7, gamma1=0.35, k=-1, g0=1.2, kappa_sum=-0.3)
GEN_REAL = Generic(0.5, 0.1, 0.7, 1.0)
DEGENERATE = Generic(0.35, 0.35, 0.7, 1.0)
GZERO_FLAT = Generic(0.4, 0.4, 0j, 1.0)
QOSC = QOsc(eps=0.5, alpha=1.2, beta=0.3, k=0)
# inverse dictionary input: kappa1 = -kappa2 = xi/2 with G(0) below cosh(xi gamma1)
P1_INV = Prop1(xi=0.6, gamma1=0.6666, k=0, g0=0.95)
# rmatrix-sectors: cond(R_8) stays below 5e10 and cond(R_10) above 1e14 on
# every shifted pack, so M = 8 passes and M >= 10 meets the invertibility
# fault on every repetition
RM_COMPLEX = Generic(0.5 + 0.2j, 0.05 + 0.05j, 0.7 - 0.3j, 1.2 + 0.2j)
RM_PROP1 = Prop1(xi=0.5, gamma1=0.8, k=0, g0=1.0)
RM_QOSC = QOsc(eps=0.5, alpha=1.0, beta=0.3, k=0)
