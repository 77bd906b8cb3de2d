"""Database schema.

The raw ``messages`` table mirrors the UDP header columns listed in the paper
(JOBID, STEPID, PID, HASH, HOST, TIME, LAYER, TYPE, CONTENT) plus the chunk
counters.  The ``processes`` table holds the post-processed, consolidated
one-row-per-process records the analysis layer works on.

Each table keeps only the indexes something reads through.  ``messages``
has none: ingest only appends to it.  ``processes`` has one:
``ux_processes_key``, the unique process key the first-close-wins insert
resolves against.  Its rows are read back whole (``SELECT ... FROM
processes``) or past a rowid (the delta cursor), which the rowid itself
serves; an index nothing queries would only be written on every insert.
"""

MESSAGES_SCHEMA = """
CREATE TABLE IF NOT EXISTS messages (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    jobid       TEXT NOT NULL,
    stepid      TEXT NOT NULL,
    pid         INTEGER NOT NULL,
    hash        TEXT NOT NULL,
    host        TEXT NOT NULL,
    time        INTEGER NOT NULL,
    layer       TEXT NOT NULL,
    type        TEXT NOT NULL,
    chunk_index INTEGER NOT NULL DEFAULT 0,
    chunk_total INTEGER NOT NULL DEFAULT 1,
    content     TEXT NOT NULL
);
"""

PROCESSES_SCHEMA = """
CREATE TABLE IF NOT EXISTS processes (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    jobid         TEXT NOT NULL,
    stepid        TEXT NOT NULL,
    pid           INTEGER NOT NULL,
    hash          TEXT NOT NULL,
    host          TEXT NOT NULL,
    time          INTEGER NOT NULL,
    uid           INTEGER,
    gid           INTEGER,
    ppid          INTEGER,
    executable    TEXT,
    category      TEXT,
    file_metadata TEXT,
    modules       TEXT,
    modules_h     TEXT,
    objects       TEXT,
    objects_h     TEXT,
    compilers     TEXT,
    compilers_h   TEXT,
    maps          TEXT,
    maps_h        TEXT,
    file_h        TEXT,
    strings_h     TEXT,
    symbols_h     TEXT,
    script_path   TEXT,
    script_h      TEXT,
    script_meta   TEXT,
    python_packages TEXT,
    incomplete    INTEGER NOT NULL DEFAULT 0
);
CREATE UNIQUE INDEX IF NOT EXISTS ux_processes_key
    ON processes (jobid, stepid, pid, hash, host, time);
"""
