"""Telling rainbow algebras apart — or failing to.

B(4,4) is predicted representable and B(5,4) is not; the two differ
only in their green count, 4 against 5.  B(4,2) and B(5,2), both
predicted not representable, differ the same way, and the
colouring-game simulation strategy survives every one-round
distinguishing attempt between them; so does no sentence of low
quantifier depth.
Counting atoms with deeply nested bounded quantifiers does separate
B(2,2) from B(3,2).
"""

from relalg import (Algebra, AtomRelStructure, Cor33Strategy, Prop44Strategy,
                    Rainbow, cardinality_sentence, evaluate,
                    predicted_representable, verify_ef_strategy,
                    verify_pebble_strategy)

rb4, rb5 = Rainbow.make(4, 2), Rainbow.make(5, 2)
print("predicted representable: B(4,4):", predicted_representable(4, 4),
      " B(5,4):", predicted_representable(5, 4))
print("(green counts 4 vs 5; the game below cannot tell them apart)")

alg4, alg5 = Algebra(rb4.structure), Algebra(rb5.structure)
print("one-round equivalence game, 500 sampled attacks:")
res = verify_ef_strategy(alg4, alg5, Prop44Strategy(rb4, rb5), n=1,
                         mode="sampled", samples=500, seed=1)
print(f"  {res.status} ({res.plays} plays)")

print("\ncounting atoms by formula: 'has at least k atoms'")
alg2, alg3 = Algebra(Rainbow.make(2, 2).structure), Algebra(Rainbow.make(3, 2).structure)
for k in (10, 11):
    print(f"  k={k}: B(2,2) -> {evaluate(cardinality_sentence(k), alg2)},"
          f" B(3,2) -> {evaluate(cardinality_sentence(k), alg3)}")

print("\n2-pebble game on the atom structures of B(2,2) vs B(3,2):")
rb2, rb3 = Rainbow.make(2, 2), Rainbow.make(3, 2)
left = AtomRelStructure.from_atom_structure(rb2.structure)
right = AtomRelStructure.from_atom_structure(rb3.structure)
res = verify_pebble_strategy(left, right, Cor33Strategy(rb2, rb3),
                             pebbles=2, rounds=4)
print(f"  {res.status} to depth 4")
res = verify_pebble_strategy(left, right, Cor33Strategy(rb2, rb3),
                             pebbles=3, rounds=3)
print(f"  with a third pebble: {res.status}")
for line in res.transcript:
    print("   ", line)
