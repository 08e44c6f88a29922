"""Table 8: scaling of wasted GPU time with the number of GPUs.

For each model: the optimal periodic checkpoint frequency c* and wasted
time fraction w_f at N in {4, 1024, 8192}, for periodic checkpointing,
user-level JIT, and transparent JIT.

Parameters o, r, m are calibrated from the simulated hardware model
(checkpoint copy/store times, restart costs) at the paper's failure rate
(2 failures/day on 992 GPUs).  Expected shapes: periodic w_f grows like
sqrt(N) and crosses the JIT variants near N~1000; transparent JIT stays
essentially flat.

Each (model x N) cell comes from :func:`repro.analysis.table8_row`, the
function ``python -m repro.tools.report table8`` prints; the paper's
periodic and user-level values are printed beside the measured ones.
"""

from benchmarks.conftest import fmt_pct, print_table, run_once
from repro.analysis import (
    CalibratedParameters,
    jit_user_level_wasted_per_gpu,
    periodic_wasted_per_gpu,
    table8_row,
)
from repro.workloads.catalog import WORKLOADS

MODELS = ["BERT-L-PT", "BERT-B-FT", "GPT2-S", "GPT2-8B"]
NS = [4, 1024, 8192]

#: Paper Table 8 w_f percentages, one per N in ``NS``, printed beside the
#: measured periodic and user-level cells.
PAPER_PERIODIC = {
    "BERT-L-PT": (0.096, 1.53, 4.5),
    "BERT-B-FT": (0.05, 0.83, 2.41),
    "GPT2-S": (0.08, 1.34, 3.78),
    "GPT2-8B": (0.18, 2.96, 8.24),
}
PAPER_USER_JIT = {
    "BERT-L-PT": (0.75, 0.77, 0.94),
    "BERT-B-FT": (0.23, 0.26, 0.41),
    "GPT2-S": (0.24, 0.26, 0.38),
    "GPT2-8B": (0.0003, 0.07, 0.56),
}

def bench_table8_scaling(benchmark):
    def run():
        rows = []
        for model in MODELS:
            params = CalibratedParameters.from_spec(WORKLOADS[model]).params
            rows += [(model, table8_row(n, params)) for n in NS]
        return rows

    by_model: dict[str, dict[int, dict]] = {}
    table = []
    for model, metrics in run_once(benchmark, run):
        by_model.setdefault(model, {})[metrics["n"]] = metrics
        column = NS.index(metrics["n"])
        table.append([
            model, metrics["n"], f"{metrics['c_star_per_hr']:.2f}/hr",
            fmt_pct(metrics["periodic"]), f"{PAPER_PERIODIC[model][column]}%",
            fmt_pct(metrics["user_jit"]), f"{PAPER_USER_JIT[model][column]}%",
            fmt_pct(metrics["transparent"], 4),
        ])
    print_table(
        "Table 8: wasted GPU time scaling (c* and w_f)",
        ["Model", "N", "c*", "w_f periodic", "paper", "w_f user JIT",
         "paper", "w_f transparent"],
        table,
        note="paper shapes: periodic grows ~sqrt(N); JIT grows slowly; "
             "transparent stays flat")

    assert set(by_model) == set(MODELS)
    for rows in by_model.values():
        # Periodic wasted time grows steeply with N.
        assert rows[8192]["periodic"] > rows[1024]["periodic"] \
            > rows[4]["periodic"]
        # At scale, both JIT variants beat periodic decisively (Table 8's
        # headline result).
        for n in (1024, 8192):
            assert rows[n]["user_jit"] < rows[n]["periodic"]
            assert rows[n]["transparent"] < rows[n]["user_jit"]
        # Transparent JIT is nearly flat: from N=4 to N=8192 it stays
        # under a tenth of a percent.
        assert rows[8192]["transparent"] < 0.001
        # Optimal frequency grows like sqrt(N) (equation 3).
        ratio = rows[1024]["c_star_per_hr"] / rows[4]["c_star_per_hr"]
        assert abs(ratio - (1024 / 4) ** 0.5) < 1.0


def bench_table8_crossover(benchmark):
    """Find where JIT overtakes periodic: the paper's Table 8 shows they
    are comparable at small N and JIT wins clearly by N=1024."""
    def run():
        spec = WORKLOADS["BERT-L-PT"]
        params = CalibratedParameters.from_spec(spec).params
        crossover = None
        for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048):
            periodic = periodic_wasted_per_gpu(n, params)
            user_jit = jit_user_level_wasted_per_gpu(n, params)
            if user_jit < periodic and crossover is None:
                crossover = n
        return crossover

    crossover = run_once(benchmark, run)
    print_table("User-level JIT vs periodic crossover (BERT-L-PT)",
                ["crossover N (JIT cheaper beyond)"], [[crossover]])
    assert crossover is not None
    assert crossover <= 1024
