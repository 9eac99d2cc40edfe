"""The colouring game on a pair of finite sets.

Each round splits every palette cell in two; the first player wins if
some palette ends up with unequal small cells.  Large enough equal-ish
sets survive n rounds, small lopsided ones do not.
"""

from relalg.seurat import (SeuratSession, brute_force_winner, forall_wins,
                           verify_seurat_strategy)

print("exact one-round values:")
for t, t2 in ((2, 3), (3, 3), (4, 4), (2, 2)):
    print(f"  G_1({t}, {t2}): {brute_force_winner(t, t2, 1)} wins")


def points(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


print("\na session of G_2 on two 8-point sets (bit i = point i):")
session = SeuratSession(2, 0xFF, 0xFF)
for attack in (0b111, 0b111001):
    reply = session.play("T", attack)
    print(f"  attack {points(attack)} -> reply {points(reply)}")
print("  first player wins?", forall_wins(session.pos) is not None)

print("\nexhaustive check of the balancing strategy, G_1 on 4 vs 4:")
res = verify_seurat_strategy(4, 4, 1, mode="exhaustive")
print(f"  {res.status} after {res.plays} plays")

print("\nexhaustive check, G_3 on 16 vs 16:")
res = verify_seurat_strategy(16, 16, 3, mode="exhaustive")
print(f"  {res.status} after {res.plays} plays, decided cell by cell")

print("\nsampled check, G_3 on 16 vs 16 (2000 random plays):")
res = verify_seurat_strategy(16, 16, 3, mode="sampled", samples=2000, seed=0)
print(f"  {res.status} after {res.plays} plays")
