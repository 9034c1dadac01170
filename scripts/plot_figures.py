#!/usr/bin/env python3
"""Plot Figures 4 and 5 from a wsrs-sim sweep report.

Usage:
    ./build/tools/wsrs-sim --all --stats-json=sweep.json
    python3 scripts/plot_figures.py sweep.json

The wsrs-sweep-report-v1 document holds every job's stats: Figure 4 is
the IPC matrix, Figure 5 the unbalancing degree of the same jobs. A
`--space` sweep plots the same way, one bar per point label.

Produces grouped bar charts (matplotlib, if installed) mirroring the
paper's presentation: one panel per figure, one bar per machine
configuration and benchmark. Falls back to an ASCII rendering when
matplotlib is unavailable.

A wsrs-explore-v1 design-space report (wsrs-explore --out=report.json)
gets an IPC-vs-area Pareto scatter instead: the estimated frontier as a
connected staircase, confirmed points overlaid with their measured IPC.
"""

import json
import sys


def parse_sweep_report(path):
    """(title, machines, {bench: values}) for Figure 4 (IPC) and Figure 5
    (unbalancing degree) from a wsrs-sweep-report-v1 JSON; None if the
    file is not one."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(doc, dict) or \
            doc.get("schema") != "wsrs-sweep-report-v1":
        return None
    groups = []
    for title, metric in (("Figure 4: IPC", "ipc"),
                          ("Figure 5: unbalancing degree (%)",
                           "unbalancing_degree")):
        machines, rows = [], {}
        for job in doc["jobs"]:
            if not job["ok"]:
                continue
            if job["machine"] not in machines:
                machines.append(job["machine"])
            rows.setdefault(job["benchmark"], {})[job["machine"]] = \
                job["stats"]["metrics"][metric]
        table = {bench: [by.get(m, 0.0) for m in machines]
                 for bench, by in rows.items()}
        if table:
            groups.append((title, machines, table))
    return groups


def parse_explore_report(path):
    """Frontier points of a wsrs-explore-v1 report as
    (area_rel, est_ipc, name, measured_ipc | None) tuples; None if the
    file is not an explore report."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != "wsrs-explore-v1":
        return None
    pts = []
    for p in doc["frontier"]:
        m = p.get("measured")
        pts.append((p["est"]["area_rel"], p["est"]["ipc"], p["name"],
                    m["ipc"] if m else None))
    return pts


def pareto_scatter(path, pts):
    """Render the IPC-vs-area Pareto frontier of one explore report."""
    pts = sorted(pts)
    areas = [p[0] for p in pts]
    est = [p[1] for p in pts]
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(7, 4.5))
        ax.step(areas, est, where="post", color="tab:blue", alpha=0.5,
                zorder=1)
        ax.scatter(areas, est, s=18, color="tab:blue", zorder=2,
                   label="estimated frontier")
        confirmed = [(a, m, n) for a, _, n, m in pts if m is not None]
        if confirmed:
            ax.scatter([c[0] for c in confirmed],
                       [c[1] for c in confirmed], s=40, marker="x",
                       color="tab:red", zorder=3, label="measured IPC")
            for a, m, n in confirmed:
                ax.annotate(n, (a, m), fontsize=6,
                            textcoords="offset points", xytext=(3, 3))
        ax.set_xlabel("area (noWS-2 relative)")
        ax.set_ylabel("IPC")
        ax.set_title("design-space Pareto frontier")
        ax.legend(fontsize=8)
        out = path.rsplit(".", 1)[0] + "_pareto.png"
        fig.tight_layout()
        fig.savefig(out, dpi=150)
        print(f"wrote {out}")
    except ImportError:
        print(f"\n{path}: Pareto frontier (IPC vs area)")
        top = max(est) or 1.0
        width = 46
        for a, e, name, m in pts:
            bar = "#" * int(width * e / top)
            meas = f"  measured {m:.3f}" if m is not None else ""
            print(f"  {name:>8} area {a:6.3f} ipc {e:6.3f} |{bar}{meas}")


def ascii_plot(machines, rows, title, scale):
    print(f"\n{title}")
    width = 46
    for bench, values in rows.items():
        print(f"  {bench}")
        for machine, v in zip(machines, values):
            bar = "#" * int(width * v / scale)
            print(f"    {machine:>12} {v:7.2f} |{bar}")


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 1
    for path in sys.argv[1:]:
        frontier = parse_explore_report(path)
        if frontier is not None:
            if frontier:
                pareto_scatter(path, frontier)
            else:
                print(f"{path}: empty frontier")
            continue
        groups = parse_sweep_report(path)
        if groups is None:
            print(f"{path}: neither a sweep report nor an explore report")
            continue
        if not groups:
            print(f"{path}: no completed jobs")
            continue
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt

            fig, axes = plt.subplots(1, len(groups),
                                     figsize=(7 * len(groups), 4))
            if len(groups) == 1:
                axes = [axes]
            for ax, (title, machines, rows) in zip(axes, groups):
                benches = list(rows)
                n = len(machines)
                for i, machine in enumerate(machines):
                    xs = [j + i / (n + 1) for j in range(len(benches))]
                    ax.bar(xs, [rows[b][i] for b in benches],
                           width=1 / (n + 1), label=machine)
                ax.set_xticks([j + 0.5 - 1 / (n + 1) / 2
                               for j in range(len(benches))])
                ax.set_xticklabels(benches, rotation=45, ha="right")
                ax.set_title(title)
                ax.legend(fontsize=7)
            out = path.rsplit(".", 1)[0] + ".png"
            fig.tight_layout()
            fig.savefig(out, dpi=150)
            print(f"wrote {out}")
        except ImportError:
            for title, machines, rows in groups:
                scale = max(max(v) for v in rows.values()) or 1.0
                ascii_plot(machines, rows, f"{path}: {title}", scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
