import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (SURVEY.md §5)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()


def _reader_answers(reader, rows):
    """What the in-process reader (IndexReader or SegmentedReader)
    returns for each query row: {qid: (doc_ids, scores)}."""
    out = {}
    for row in rows:
        kind, terms, k = row["kind"], list(row["terms"]), row.get("k") or 10
        if kind == "bm25_topk":
            ids, sc = reader.bm25_topk(terms, k)
            out[row["qid"]] = (ids.tolist(), sc.tolist())
        elif kind in ("term_and", "wildcard_and"):
            ids = reader.find(terms)
            out[row["qid"]] = (ids.tolist(), [0.0] * ids.size)
        elif kind == "file_glob":
            urls = reader.find_files(terms[0] if terms else "*")
            out[row["qid"]] = ([], [float(len(urls))])
    return out


@pytest.fixture
def check_eval_matches_reader():
    """Assert batch_eval.evaluate_queries == the in-process reader, rank
    AND float64 score identical, at every given shard count."""
    import numpy as np

    def check(index_path, reader, queries, shard_counts=(1, 3, 8)):
        import ray.data

        from textindex_ray.query.batch_eval import evaluate_queries

        want = _reader_answers(reader, queries.to_pylist())
        qds = ray.data.from_arrow(queries)
        for n in shard_counts:
            got = {
                r["qid"]: r
                for r in evaluate_queries(index_path, qds, n_shards=n).iter_rows()
            }
            assert set(got) == set(want), n
            for qid, (ids, scores) in want.items():
                assert list(got[qid]["doc_ids"]) == ids, (n, qid)
                np.testing.assert_allclose(
                    got[qid]["scores"], scores, rtol=0, atol=0,
                    err_msg=str((n, qid)),
                )

    return check
