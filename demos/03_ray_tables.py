"""Reproduce the small-r extremal ray tables.

Prints the complete EqLR_r^3 ray lists for r <= 3, split into the rays
lying on the LR face (trace tight) and the strictly equivariant ones,
then the LR/EqLR ray counts for r <= 5 (44 / 195 at r = 5); the whole demo
runs in about 1.5 s.
"""

from lrcone.cones import format_point, member
from lrcone.rays import enumerate_rays

for r in (1, 2, 3):
    rays = enumerate_rays(r, 3, "EqLR")
    on_lr = [p for p in rays if member(p, "LR")]
    strict = [p for p in rays if not member(p, "LR")]
    print(f"EqLR_{r}^3: {len(rays)} rays "
          f"({len(on_lr)} on the LR face, {len(strict)} strictly equivariant)")
    for p in on_lr:
        print(f"  {format_point(p)}")
    print("  " + "-" * 20)
    for p in strict:
        print(f"  {format_point(p)}")
    print()

print("counts:")
print("r\tLR\tEqLR")
for r in (1, 2, 3, 4, 5):
    lr = len(enumerate_rays(r, 3, "LR"))
    eq = len(enumerate_rays(r, 3, "EqLR"))
    print(f"{r}\t{lr}\t{eq}")
