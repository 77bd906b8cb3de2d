"""Table 7 -- similarity search identifying the UNKNOWN executable as icon.

This is the paper's headline qualitative result: an executable submitted under
a nondescript path/file name (``a.out``) is matched, via fuzzy-hash similarity
over six characteristics, to known instances of the ICON climate model, with
one perfect 100-score match and progressively lower scores for more distant
variants.
"""

from repro.analysis.report import render_similarity
from repro.analysis.similarity import HASH_COLUMNS, SimilaritySearch
from repro.util.tables import TextTable

from oracles.search import reference_identify


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


def test_table7_all_pairs_reference(benchmark, bench_pipeline):
    """Timing reference: Table 7 with every pair compared, one at a time."""
    searches = benchmark(lambda: reference_identify(
        SimilaritySearch(bench_pipeline.records).instances, top=10))
    assert searches


def test_gated_table7_is_the_all_pairs_one(bench_campaign):
    """The n-gram gate must not change a single byte of Table 7's output.

    Renders the search's answer and the all-pairs reference's (every pair
    through ``FuzzyHasher.compare``), checks the renderings are
    byte-identical, and prints the gate's counters: the search compares only
    the (baseline, candidate) pairs the gate passes.
    """
    search = SimilaritySearch(bench_campaign.records)
    gated = search.identify_unknown(top=10)
    reference = reference_identify(search.instances, top=10)

    def rendered(searches) -> str:
        return "\n\n".join(
            render_similarity(results, title=f"Table 7 (baseline: {path})")
            for path, results in searches.items())

    assert rendered(gated) == rendered(reference)
    assert gated == reference

    stats = search.index_stats()
    pairs = len(search.unknown_instances()) * len(search.labelled_instances()) \
        * len(HASH_COLUMNS)
    table = TextTable(["pairs", "compared", "pruned", "digests registered", "probes"],
                      title="Table 7: the n-gram gate's counters")
    table.add_row([pairs, search.comparisons, stats.pairs_pruned, stats.digests,
                   stats.queries])
    print()
    print(table.render())
    assert stats.candidates_returned + stats.pairs_pruned == pairs
    assert search.comparisons == stats.candidates_returned < pairs
