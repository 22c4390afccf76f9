"""Independent verification back-ends.

`dd_rays` enumerates extremal rays of a small inequality system with the
double description method in exact rational arithmetic; it shares no code
path with the recursive ray algorithm and serves as its oracle.

`sample_spectrum_sum` draws random Hermitian sums with prescribed spectra
and checks the resulting eigenvalue tuples against the cone inequalities
numerically.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cones import check_horn_work, inequality_system


class LinealityError(ValueError):
    """The cone contains a line; its extremal rays are not well-defined."""


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _primitive_vec(v):
    scale = math.lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    if g == 0:
        return None
    return tuple(x // g for x in ints)


def dd_rays(system, ceiling=9):
    """Extremal rays of {x : Ax >= 0}, the rows of A being the system's
    forms, via double description.

    Starts from all of R^n as a lineality basis and adds the forms in order;
    an equality is a form and its negative, each an ordinary inequality
    step. Raises LinealityError if lines survive every constraint (the cone
    is not pointed). Returns primitive integer rays in block form, sorted.
    """
    n = system.dim
    if n > ceiling:
        raise ValueError(f"dimension {n} exceeds the DD ceiling {ceiling}")
    lines = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    rays = []          # list of (vector, tightset frozenset)
    processed = []     # inequality normals already incorporated

    def tight(vec):
        return frozenset(i for i, a in enumerate(processed) if _dot(a, vec) == 0)

    for form in system.forms:
        a = form.coeffs
        vals_l = [_dot(a, l) for l in lines]
        hit = next((i for i, v in enumerate(vals_l) if v != 0), None)
        if hit is not None:
            l0, v0 = lines[hit], vals_l[hit]
            new_lines = []
            for l, v in zip(lines, vals_l):
                if l is l0:
                    continue
                new_lines.append(tuple(x - Fraction(v, v0) * y for x, y in zip(l, l0))
                                 if v else l)
            new_rays = []
            for vec, _ in rays:
                v = _dot(a, vec)
                if v:
                    vec = tuple(x - Fraction(v, v0) * y for x, y in zip(vec, l0))
                new_rays.append(vec)
            lines = new_lines
            rays = [(vec, None) for vec in new_rays]
            rays.append((l0 if v0 > 0 else tuple(-x for x in l0), None))
            processed.append(a)
            rays = [(vec, tight(vec)) for vec, _ in rays]
            continue
        # all lines are inside the hyperplane; split the rays
        vals = [(vec, ts, _dot(a, vec)) for vec, ts in rays]
        pos = [rv for rv in vals if rv[2] > 0]
        zero = [rv for rv in vals if rv[2] == 0]
        neg = [rv for rv in vals if rv[2] < 0]
        new = []
        for vp, tp, ap in pos:
            for vm, tm, am in neg:
                common = tp & tm
                # combinatorial adjacency: no third ray's tight set contains it
                adjacent = not any(ts >= common for v3, ts, _ in vals
                                   if v3 is not vp and v3 is not vm)
                if adjacent:
                    vec = tuple(ap * xm - am * xp for xp, xm in zip(vp, vm))
                    if any(vec):
                        new.append(vec)
        processed.append(a)
        survivors = [vec for vec, _, _ in pos + zero]
        rays = [(vec, tight(vec)) for vec in survivors + new]
    if lines:
        raise LinealityError(
            f"{system.kind}_{system.r}^{system.s} has a {len(lines)}-dimensional "
            "lineality space; extremal rays are not well-defined")
    out = set()
    for vec, _ in rays:
        p = _primitive_vec(vec)
        if p:
            out.add(tuple(p[k * system.r:(k + 1) * system.r] for k in range(system.s)))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# numerical spectrum sampling

@dataclass(frozen=True)
class SpectrumSample:
    spectra: tuple       # input eigenvalue vectors, decreasing
    result: tuple        # eigenvalues of the (majorized) sum, decreasing
    mode: str            # "equal" or "majorized"
    max_violation: float  # worst constraint violation of the cone system

    def to_json(self):
        return {"spectra": [list(v) for v in self.spectra],
                "result": list(self.result), "mode": self.mode,
                "max_violation": self.max_violation}


def spectrum_violation(spectra, result, mode):
    """Worst violation of the C / EqC inequality system by a float tuple."""
    r = len(result)
    s = len(spectra) + 1
    kind = "C" if mode == "equal" else "EqC"
    sys = inequality_system(r, s, kind)
    return max(0.0, (-sys.values([*spectra, result])).max())


def _random_unitary(rng, r):
    g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, rad = np.linalg.qr(g)
    return q * (np.diag(rad) / np.abs(np.diag(rad)))


PERTURBATION_SCALE = 0.5  # majorized mode subtracts this times g g* / r


def sample_spectrum_sum(spectra, mode, trials, seed):
    """Conjugate diagonal matrices by random unitaries, sum, and (in
    majorized mode) subtract a random PSD perturbation; deterministic
    under a fixed seed. Fewer than two spectra, and a Horn work over its
    ceiling, are refused before the first trial."""
    if mode not in ("equal", "majorized"):
        raise ValueError(f"mode must be 'equal' or 'majorized', got {mode!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spectra = tuple(tuple(float(v) for v in vec) for vec in spectra)
    # the cone systems need s = len(spectra) + 1 >= 3
    if len(spectra) < 2:
        raise ValueError(f"need at least two spectra, got {len(spectra)}")
    r = len(spectra[0])
    for vec in spectra:
        if len(vec) != r:
            raise ValueError(f"spectrum {vec} has length {len(vec)}; "
                             f"expected {r}, the length of the first")
        if not all(math.isfinite(v) for v in vec):
            raise ValueError(f"spectrum {vec} has an entry that is not finite")
        if any(a < b - 1e-12 for a, b in zip(vec, vec[1:])):
            raise ValueError(f"spectrum {vec} is not weakly decreasing")
    check_horn_work(r, len(spectra) + 1)
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(trials):
        total = np.zeros((r, r), dtype=complex)
        for vec in spectra:
            u = _random_unitary(rng, r)
            total += u @ np.diag(vec) @ u.conj().T
        if mode == "majorized":
            g = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
            total -= PERTURBATION_SCALE * (g @ g.conj().T) / r
        eigs = tuple(sorted(np.linalg.eigvalsh(total).tolist(), reverse=True))
        samples.append(SpectrumSample(
            spectra, eigs, mode, spectrum_violation(spectra, eigs, mode)))
    return samples
