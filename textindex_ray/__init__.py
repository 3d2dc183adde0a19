"""textindex_ray — a Ray-Data-native inverted-index build + BM25 query engine.

Brand-new implementation of the query/data-processing capabilities of the
reference ``thscharler/textindex`` (see SURVEY.md), architected for Ray
Data: streaming Dataset pipelines of Arrow batches, stateless tasks for
the extract/tokenize stages (their tables are per-process globals),
per-bucket posting-list construction, segment-granular checkpointing for
resume.
"""

__version__ = "0.1.0"
