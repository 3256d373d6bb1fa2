"""Largest feasible N_1 per (q, g), with higher-order data tightening it.

For each field size and genus the search scans N_1 downward from the Weil
upper end and asks for a completion (N_1, ..., N_m) whose absolute Gram is
positive semidefinite and whose place counts are consistent.  Raising m
can only lower the answer.  The closed-form second-order relaxation gives
an upper bound the search provably never exceeds at m >= 2.
"""

from weilgram.feasibility import FeasibilityProblem, ihara_closed_form, max_n1

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
GENERA = (1, 2, 3, 4)

print(f"{'q':>3} {'g':>2} | {'m=1':>5} {'m=2':>5} {'m=3':>5} | "
      f"{'closed form':>11} {'witness (m=2)':>16}")
print("-" * 56)
for q in PRIME_POWERS:
    for g in GENERA:
        best = {m: max_n1(FeasibilityProblem(q=q, g=g, m=m)) for m in (1, 2, 3)}
        closed = ihara_closed_form(q, g)
        marks = " *" if best[2].max_n1 < best[1].max_n1 else ""
        print(f"{q:>3} {g:>2} | {best[1].max_n1:>5} {best[2].max_n1:>5} "
              f"{best[3].max_n1:>5} | {closed.floor:>11} "
              f"{str(best[2].witness):>16}{marks}")
print("-" * 56)
print("* second-order data strictly tightens the first-order answer")
