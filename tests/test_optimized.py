"""The ``python -O`` run: every test marked ``optimized`` runs once more in
one ``python -O -m pytest -m optimized`` subprocess, where assert
statements are stripped, so the guarantees those tests show are seen to
hold without them. The ``*_under_optimize`` tests of each module read
their targets' outcomes from that same run."""


def test_every_marked_test_passes_under_optimize(optimized_run):
    rc, passed, failed, output = optimized_run
    assert not failed, f"failed under python -O: {failed}"
    assert passed, output
    assert rc == 0, output


def test_the_runner_names_a_test_that_fails_under_optimize_only(
    tmp_path, run_marked_under_optimize
):
    (tmp_path / "pytest.ini").write_text("[pytest]\nmarkers =\n    optimized: run -O\n")
    # pytest rewrites the asserts of test modules, so the one that -O strips
    # sits in a module of its own, as a guarantee of the package would
    (tmp_path / "guarded.py").write_text("def check():\n    assert False\n")
    (tmp_path / "test_sample.py").write_text(
        "import pytest\n"
        "from guarded import check\n"
        "\n"
        "@pytest.mark.optimized\n"
        "def test_check_raises():\n"
        "    with pytest.raises(AssertionError):\n"
        "        check()\n"
        "\n"
        "@pytest.mark.optimized\n"
        "def test_marked_and_sound():\n"
        "    pass\n"
        "\n"
        "def test_unmarked_so_not_run():\n"
        "    check()\n"
    )
    rc, passed, failed, _output = run_marked_under_optimize(tmp_path, cwd=tmp_path)
    assert rc == 1
    assert failed == ["test_sample.py::test_check_raises"]
    assert passed == ["test_sample.py::test_marked_and_sound"]
