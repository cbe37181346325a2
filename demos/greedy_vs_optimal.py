"""Greedy policy versus the exact dynamic-programming optimum.

In the positively correlated regime (p11 >= p01) the myopic policy — sense
the k channels with the highest current beliefs — achieves the optimal
value exactly.  With negative correlation it can fall short, because a
channel just seen in the bad state becomes the most promising one next slot.

Greedy's exact value comes from the solver's greedy audit, which also gives
greedy's worst regret over every belief the DP reaches.  The ordered-list
recursion W on the sorted belief equals greedy's value only when p11 >= p01.
"""

from oppaccess import BeliefVector, FiniteHorizonSolver, HorizonSpec, TransitionModel


def show(model, horizon, omega, k=1):
    solver = FiniteHorizonSolver(model, horizon, k)
    result = solver.optimal_value(omega, t=1)
    audit = solver.greedy_audit(omega, t=1)
    print(f"optimal value      : {result.value:.12f}")
    print(f"greedy value       : {audit.value:.12f}")
    print(f"gap                : {result.value - audit.value:.3e}")
    print(f"ordered list (W)   : {solver.greedy_value(omega, t=1):.12f}")
    print(f"optimal first actions: {[a.indices for a in result.best_actions]}")
    print(f"greedy's worst regret: {audit.regret:.3e} at t={audit.t},"
          f" beliefs {tuple(round(w, 4) for w in audit.omega)}\n")


print("=== positively correlated: greedy is optimal ===")
show(TransitionModel(p01=0.2, p11=0.8), HorizonSpec(T=4, beta=1.0), BeliefVector((0.3, 0.5, 0.7)))

print("=== negatively correlated, same beliefs: greedy is still optimal here ===")
show(TransitionModel(p01=0.8, p11=0.2), HorizonSpec(T=4, beta=1.0), BeliefVector((0.3, 0.5, 0.7)))

print("=== negatively correlated: greedy strictly suboptimal ===")
show(
    TransitionModel(p01=0.8642042158322776, p11=0.016322952904415877),
    HorizonSpec(T=6, beta=1.0),
    BeliefVector((0.8364063168229026, 0.8199228695810893, 0.9486247093009833, 0.8834619041015644)),
)
print("With negative correlation the ordered list started in ascending order")
print("is no longer greedy, so its value W differs from greedy's.  Greedy")
print("loses only on some beliefs: here its first choice, the highest belief,")
print("is not the optimal one.")
