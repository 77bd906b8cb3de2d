"""Table 7 -- similarity search identifying the UNKNOWN executable as icon.

This is the paper's headline qualitative result: an executable submitted under
a nondescript path/file name (``a.out``) is matched, via fuzzy-hash similarity
over six characteristics, to known instances of the ICON climate model, with
one perfect 100-score match and progressively lower scores for more distant
variants.
"""

import sys

from repro.analysis import simindex
from repro.analysis.report import render_similarity
from repro.analysis.similarity import HASH_COLUMNS, SimilaritySearch
from repro.util.tables import TextTable


def test_table7_similarity_search(benchmark, bench_pipeline):
    searches = benchmark(lambda: bench_pipeline.table7_similarity_search(top=10))
    print()
    for baseline, results in searches.items():
        print(render_similarity(results, title=f"Table 7 (baseline: {baseline})"))
        print()

    aout_baseline = next(path for path in searches if path.endswith("a.out"))
    results = searches[aout_baseline]

    # Paper shape: every top candidate is icon; the best match is 100 across
    # all six hash columns; averages decrease monotonically; the raw-file hash
    # drops to 0 for distant variants while modules/compilers/objects stay 100
    # and the symbol hash stays high.
    assert all(result.label == "icon" for result in results)
    best = results[0]
    assert best.average == 100.0
    assert all(best.scores[column] == 100 for column in HASH_COLUMNS)
    averages = [result.average for result in results]
    assert averages == sorted(averages, reverse=True)
    assert averages[-1] < 100.0
    tail = results[1:]
    assert any(result.scores["FI_H"] < 100 for result in tail)
    assert all(result.scores["SY_H"] >= 80 for result in tail)


def test_table7_similarity_search_brute_force(benchmark, bench_pipeline, monkeypatch):
    """Timing reference: the same search on the all-pairs brute-force path."""
    monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", sys.maxsize)
    searches = benchmark(lambda: SimilaritySearch(
        bench_pipeline.records).identify_unknown(top=10))
    assert searches


def test_indexed_table7_is_byte_identical_with_fewer_comparisons(bench_campaign,
                                                                 monkeypatch):
    """The n-gram index must not change a single byte of Table 7's output.

    Runs the search twice -- brute force and indexed (the search reads
    ``DEFAULT_INDEX_THRESHOLD`` at query time; it is patched to
    ``sys.maxsize`` for the first run and to 0 for the second, so the index
    engages regardless of campaign scale) -- renders both result sets, and
    checks the renderings are byte-identical while the indexed run performed
    no more digest comparisons (strictly fewer at default scale).
    """
    brute = SimilaritySearch(bench_campaign.records)
    indexed = SimilaritySearch(bench_campaign.records)

    monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", sys.maxsize)
    brute_out = brute.identify_unknown(top=10)
    monkeypatch.setattr(simindex, "DEFAULT_INDEX_THRESHOLD", 0)
    indexed_out = indexed.identify_unknown(top=10)

    def rendered(searches) -> str:
        return "\n\n".join(
            render_similarity(results, title=f"Table 7 (baseline: {path})")
            for path, results in searches.items())

    assert rendered(brute_out) == rendered(indexed_out)
    assert brute_out == indexed_out

    stats = indexed.index_stats()
    table = TextTable(["path", "digest comparisons", "pairs pruned"],
                      title="Table 7: brute force vs n-gram index")
    table.add_row(["brute force", brute.comparisons, 0])
    table.add_row(["indexed", indexed.comparisons,
                   stats.pairs_pruned if stats is not None else 0])
    print()
    print(table.render())
    assert indexed.comparisons <= brute.comparisons
