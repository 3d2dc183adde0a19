"""pipelines.documents._code_tag keys the /tmp index caches: it must
change when engine code under textindex_ray/ changes, committed or not,
and stay put otherwise."""

import subprocess

from textindex_ray.pipelines.documents import _code_tag


def _git(root, *args):
    subprocess.run(
        ["git", "-C", str(root), "-c", "user.name=t", "-c", "user.email=t@t", *args],
        check=True, capture_output=True,
    )


def test_code_tag_tracks_uncommitted_engine_code(tmp_path):
    pkg = tmp_path / "textindex_ray"
    pkg.mkdir()
    (pkg / "build.py").write_text("X = 1\n")
    (tmp_path / "README.md").write_text("readme\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")

    clean = _code_tag(str(tmp_path))
    assert clean and "-" not in clean
    assert _code_tag(str(tmp_path)) == clean

    # edits outside textindex_ray/ do not touch the engine's caches
    (tmp_path / "README.md").write_text("edited\n")
    assert _code_tag(str(tmp_path)) == clean

    (pkg / "build.py").write_text("X = 2\n")
    edited = _code_tag(str(tmp_path))
    assert edited.startswith(clean + "-")
    assert _code_tag(str(tmp_path)) == edited
    (pkg / "build.py").write_text("X = 3\n")
    assert _code_tag(str(tmp_path)) not in (clean, edited)

    (pkg / "build.py").write_text("X = 1\n")
    assert _code_tag(str(tmp_path)) == clean

    # a new, untracked engine file counts too
    (pkg / "codec.py").write_text("Y = 1\n")
    assert _code_tag(str(tmp_path)) != clean

    # committing makes the tree clean again under a new HEAD
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "next")
    committed = _code_tag(str(tmp_path))
    assert committed != clean and "-" not in committed
