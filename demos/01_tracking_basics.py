"""Tracking a moving fixed point with one map evaluation per time step.

Walks through the core loop: declare a time-varying contraction, compute its
reference fixed points, run the online tracker, and compare the realized
errors with the per-step envelope and the steady-state bound. The second half
shows the scalar drifting map whose steady-state error lands exactly on the
bound, so the guarantee is tight, not just safe.
"""
import numpy as np

import fptrack as fp
from fptrack.bounds import BoundInputs, per_step_bound_series, tracking_bound_sync
from fptrack.problems import DriftPath, build_affine_family

L2 = fp.Norm(fp.L2)


def main():
    print("=== online tracking of a drifting affine fixed point ===")
    drift = DriftPath("linear", 6, rate=0.05, seed=1, norm=L2,
                      start=np.linspace(-1, 1, 6))
    family = build_affine_family(6, L2, 0.8, drift, seed=2)
    horizon = 600

    noisy = fp.with_output_noise(family, 0.01, seed=3, norm=L2)
    trace = fp.run_online_tracker(noisy, np.zeros(6), horizon, L2)

    env = per_step_bound_series(
        trace.errors[0],
        np.full(horizon - 1, 0.01),
        trace.reference.drifts,
        np.full(horizon - 1, 0.8),
        horizon - 1,
    )
    steady = tracking_bound_sync(BoundInputs(lipschitz=0.8, map_error=0.01, drift=0.05))
    print(f"contraction factor 0.8, drift 0.05/step, evaluation error <= 0.01")
    print(f"per-step envelope holds everywhere: {bool(np.all(trace.errors <= env + 1e-9))}")
    print(f"steady-state bound (e + s)/(1 - L) = {steady:.4f}")
    print(f"tail error (max over final 10%)    = {trace.tail_max(0.1):.4f}")

    print()
    print("=== a map that achieves its bound exactly ===")
    scalar = fp.MapFamily(
        1, fp.Domain.all_space(1),
        fp.pointwise(lambda x, t: 0.5 * x + np.array([0.05 * t])),
        0.5, fixed_point=lambda t: 0.1 * t[:, None],
    )
    trace = fp.run_online_tracker(scalar, np.array([0.0]), 200, L2)
    bound = tracking_bound_sync(BoundInputs(lipschitz=0.5, drift=0.1))
    print(f"fixed points move by 0.1 per step; factor 0.5")
    print(f"bound = 0.1 / 0.5 = {bound:.6f}")
    print(f"settled tracking error = {trace.tail_max(0.1):.6f} (difference "
          f"{abs(trace.tail_max(0.1) - bound):.2e})")

    print()
    print("=== errors collapse geometrically once the drift stops ===")
    static = fp.MapFamily(
        1, fp.Domain.all_space(1),
        fp.pointwise(lambda x, t: 0.5 * x + np.array([1.0])),
        0.5, fixed_point=lambda t: np.array([2.0]),
    )
    trace = fp.run_online_tracker(static, np.array([0.0]), 12, L2)
    for k in (0, 1, 2, 5, 11):
        print(f"  t={k + 1:2d}  error={trace.errors[k]:.6f}  "
              f"(geometric reference {2.0 * 0.5 ** k:.6f})")


if __name__ == "__main__":
    main()
