"""Study of optimistic delivery: Figure 1, the optimism trade-off and lazy
replication, reproduced on the simulated network.

Run with::

    python examples/optimistic_delivery_study.py

The script regenerates the paper's Figure 1 (probability of spontaneous total
order vs. the interval between broadcasts), shows how the tentative/definitive
mismatch rate and the resulting reordering aborts grow when the network gets
noisier, and compares OTP against asynchronous (lazy) replication on the same
workload — the three quantitative arguments of the paper.
"""

from repro.harness import ascii_plot, run_experiment


def main() -> None:
    print("Reproducing Figure 1: spontaneous total order on a simulated LAN")
    figure1 = run_experiment(
        "figure1",
        interval_ms=(0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0),
        messages_per_site=150,
    )
    print(figure1.format_table())
    points = [
        (row["interval_ms"], row["spontaneously_ordered_pct"]) for row in figure1.rows
    ]
    print()
    print(ascii_plot(points, x_label="interval (ms)", y_label="% ordered"))
    print()

    print("Optimism trade-off: what happens when spontaneous order degrades")
    tradeoff = run_experiment(
        "tradeoff", receiver_jitter_us=(30.0, 400.0, 3000.0), updates_per_site=25
    )
    print(tradeoff.format_table())
    print()

    print("OTP vs. asynchronous (lazy) replication on the same workload")
    lazy = run_experiment("lazy", updates_per_site=40)
    print(lazy.format_table())
    print()
    for note in lazy.notes:
        print(f"note: {note}")


if __name__ == "__main__":
    main()
