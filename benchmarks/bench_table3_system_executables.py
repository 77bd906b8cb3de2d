"""Table 3 -- top-10 most used executables from system directories."""

from repro.analysis.report import render_system_executables


def test_table3_system_executables(benchmark, bench_pipeline):
    rows = benchmark(lambda: bench_pipeline.table3_system_executables(top=10))
    print()
    print(render_system_executables(rows, title="Table 3 (reproduced)"))
    total = len(bench_pipeline.table3_system_executables(top=None))
    print(f"Total distinct system-directory executables: {total}")

    names = [row.executable.rsplit("/", 1)[-1] for row in rows]
    by_name = {name: row for name, row in zip(names, rows)}
    # Paper shape: srun/bash are used by the most users; mkdir and rm dominate
    # the process counts (driven by user_1); bash shows multiple OBJECTS_H
    # variants while coreutils have exactly one.
    assert "srun" in names[:3] or "bash" in names[:3]
    assert {"mkdir", "rm"} <= set(names)
    heavy = max(rows, key=lambda row: row.process_count)
    assert heavy.executable.rsplit("/", 1)[-1] in {"mkdir", "rm"}
    assert by_name["bash"].unique_objects_h >= 2
    assert by_name["mkdir"].unique_objects_h == 1
    assert total >= 25
