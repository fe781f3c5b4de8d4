"""Distributed tracking over lossy, delayed channels.

Four scalar agents share an affine max-norm contraction. Their blocks travel
over per-edge channels that can delay or drop packets; the simulator keeps an
exact log of which copy every agent used at every tick, from which the
realized worst-case staleness and stale-neighbor counts are recomputed. The
tail error is then certified against the asynchronous max-norm bound using
only realized quantities.
"""
import os
import tempfile

import numpy as np

import fptrack as fp
from fptrack.bounds import BoundInputs, tracking_bound_async_inf
from fptrack.problems import DriftPath, build_affine_family

LINF = fp.Norm(fp.LINF)


def main():
    drift = DriftPath("linear", 4, rate=0.05, seed=3, norm=LINF,
                      start=np.array([0.5, -0.25, 0.1, 0.8]))
    family = build_affine_family(4, LINF, 0.6, drift, seed=6)
    graph = family.dependency_graph()
    horizon = 3000
    reference = fp.compute_fixed_point_series(family, horizon, LINF)

    print("=== one family, four delivery regimes ===")
    regimes = [
        ("fresh every tick", fp.ZeroDelay()),
        ("constant 2-tick delay", fp.FixedDelay(2)),
        ("delivery every 4th tick", fp.PeriodicDelivery(4)),
        ("30% drops, forced after 6", fp.IidDrop(0.3, max_consecutive=6)),
    ]
    print(f"{'regime':>28} {'T_d':>4} {'N_d':>4} {'tail error':>11} {'bound':>8}")
    for label, channels in regimes:
        trace, stats = fp.run_async_tracker(
            family, graph, channels, np.zeros(4), horizon, LINF, seed=4,
            reference=reference,
        )
        bound = tracking_bound_async_inf(BoundInputs(
            lipschitz=0.6, drift=0.05, max_delay=stats.max_delay,
            max_stale=stats.max_stale, dim=4, norm=LINF,
        ))
        print(f"{label:>28} {stats.max_delay:>4} {stats.max_stale:>4} "
              f"{trace.tail_max(0.1):>11.4f} {bound:>8.4f}")
    print("staleness inflates only the drift contribution: bound = "
          "drift*(1 + L*T_d)/(1 - L).")

    print()
    print("=== the log is the ground truth ===")
    trace, stats = fp.run_async_tracker(
        family, graph, fp.IidDrop(0.4, max_consecutive=5), np.zeros(4), 200, LINF,
        seed=9, reference=fp.compute_fixed_point_series(family, 200, LINF),
    )
    log = stats.log
    print(f"log rows (tick, src, dst, stamp): {len(log)}")
    recomputed = fp.realized_delay_stats(log, graph)
    print(f"realized worst staleness {recomputed.max_delay} "
          f"(cap guarantees <= 6), stale neighbors <= {recomputed.max_stale}")

    print()
    print("=== schedules round-trip through CSV ===")
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "schedule.csv")
        fp.write_log_csv(path, log)
        replay = fp.read_schedule_csv(path)
    trace2, stats2 = fp.run_async_tracker(
        family, graph, replay, np.zeros(4), 200, LINF, seed=0,
        reference=trace.reference,
    )
    print(f"replayed run identical to the original: "
          f"{np.array_equal(trace.iterates, trace2.iterates)}")

    print()
    print("=== zero-delay asynchrony is the synchronous tracker, bit for bit ===")
    sync = fp.run_online_tracker(family, np.zeros(4), 500, LINF)
    asyn, _ = fp.run_async_tracker(family, graph, fp.ZeroDelay(), np.zeros(4), 500,
                                   LINF, seed=1, reference=sync.reference)
    print(f"bitwise equal over 500 ticks: {np.array_equal(sync.iterates, asyn.iterates)}")


if __name__ == "__main__":
    main()
