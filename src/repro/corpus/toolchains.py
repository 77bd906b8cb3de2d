"""Compiler toolchains and the ``.comment`` identification strings they write.

Compilers record a producer string in the ``.comment`` section of every
object file they emit; a linked executable therefore carries one entry per
distinct toolchain that contributed objects.  This module defines the
toolchains the synthetic corpus builds with: each is a *family [provenance]*
label as the paper's Table 6 and Figure 4 print it (``GCC [SUSE]``, ``clang
[Cray]`` ...) and the exact string it writes.  Reading the strings back into
labels is the analysis's job (:mod:`repro.analysis.compilers`), by rule and
without this table.
"""

from __future__ import annotations

#: The eight toolchains observed in the paper's deployment (Table 6 / Figure 4):
#: label -> the exact ``.comment`` entry the toolchain writes.
TOOLCHAINS: dict[str, str] = {
    "GCC [SUSE]": "GCC: (SUSE Linux) 12.3.0",
    "GCC [Red Hat]": "GCC: (GNU) 8.5.0 20210514 (Red Hat 8.5.0-18)",
    "GCC [conda]": "GCC: (conda-forge gcc 12.3.0-3) 12.3.0",
    "GCC [HPE]": "GCC: (HPE CPE) 12.2.0",
    "clang [Cray]": "clang version 17.0.1 (Cray PE 24.03)",
    "clang [AMD]": "AMD clang version 17.0.0 (roc-6.0.3 24012)",
    "LLD [AMD]": "Linker: AMD LLD 17.0.0 (roc-6.0.3)",
    "rustc": "rustc version 1.75.0 (82e1608df 2023-12-21)",
}

#: Ordered list of labels, as displayed on the x-axis of Figure 4.
TOOLCHAIN_ORDER: tuple[str, ...] = (
    "GCC [SUSE]", "LLD [AMD]", "clang [Cray]", "clang [AMD]",
    "GCC [Red Hat]", "GCC [conda]", "GCC [HPE]", "rustc",
)


def comments_for(labels: list[str]) -> list[str]:
    """The ``.comment`` entries an executable built with these toolchains carries."""
    return [TOOLCHAINS[label] for label in labels]
