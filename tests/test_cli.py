"""The harmonia CLI surface."""

import pytest

from repro.cli import build_parser, main
from tests.conftest import SAMPLE_DDL, SAMPLE_XSD


@pytest.fixture
def schema_files(tmp_path):
    sql = tmp_path / "a.sql"
    sql.write_text(SAMPLE_DDL)
    xsd = tmp_path / "b.xsd"
    xsd.write_text(SAMPLE_XSD)
    return str(sql), str(xsd)


class TestCli:
    def test_match_command(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["match", sql, xsd, "--threshold", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "matched" in out
        assert "pairs in" in out

    def test_batch_command(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["batch", sql, xsd, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "candidates" in out
        assert "batch total: 1 match operations" in out

    def test_batch_all_pairs(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["batch", sql, xsd, "--all-pairs", "--limit", "0"]) == 0
        out = capsys.readouterr().out
        assert "batch total: 1 match operations" in out

    def test_batch_zero_workers_exits_2(self, schema_files):
        sql, xsd = schema_files
        with pytest.raises(SystemExit) as caught:
            main(["batch", sql, xsd, "--workers", "0"])
        assert caught.value.code == 2

    def test_batch_needs_targets(self, schema_files):
        sql, _ = schema_files
        with pytest.raises(SystemExit):
            main(["batch", sql])

    def test_vocab_batch_flag(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["vocab", sql, xsd, "--batch"]) == 0
        out = capsys.readouterr().out
        assert "comprehensive vocabulary" in out

    def test_overlap_command(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["overlap", sql, xsd]) == 0
        out = capsys.readouterr().out
        assert "Overlap analysis" in out

    def test_summarize_command(self, schema_files, capsys):
        sql, _ = schema_files
        assert main(["summarize", sql]) == 0
        out = capsys.readouterr().out
        assert "concepts over" in out

    def test_tree_command(self, schema_files, capsys):
        sql, _ = schema_files
        assert main(["tree", sql]) == 0
        out = capsys.readouterr().out
        assert "ALL_EVENT_VITALS" in out

    def test_unknown_extension(self, tmp_path):
        bogus = tmp_path / "x.txt"
        bogus.write_text("hello")
        with pytest.raises(SystemExit):
            main(["tree", str(bogus)])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_json_loading(self, sample_relational, tmp_path, capsys):
        from repro.schema import dump_schema

        path = tmp_path / "schema.json"
        dump_schema(sample_relational, str(path))
        assert main(["tree", str(path)]) == 0
        assert "PERSON_MASTER" in capsys.readouterr().out

    def test_vocab_command(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["vocab", sql, xsd]) == 0
        out = capsys.readouterr().out
        assert "comprehensive vocabulary" in out
        assert "schemata" in out

    def test_vocab_needs_two(self, schema_files):
        sql, _ = schema_files
        with pytest.raises(SystemExit):
            main(["vocab", sql])

    def test_cluster_command(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["cluster", sql, xsd, "--min-cohesion", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "COI" in out or "no communities" in out

    def test_search_command(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["search", "blood type person", sql, xsd, "--fragments"]) == 0
        out = capsys.readouterr().out
        assert "a" in out  # schema stem name appears
        assert "fragments:" in out

    def test_search_no_hits(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["search", "zeppelin cargo manifest", sql, xsd]) == 0
        assert "no schemata match" in capsys.readouterr().out

    def test_duplicate_registry_names_get_suffixes(self, schema_files, capsys):
        sql, _ = schema_files
        assert main(["cluster", sql, sql, "--min-cohesion", "0.0"]) == 0
        # Two copies of the same file cluster perfectly together.
        out = capsys.readouterr().out
        assert "COI(2 systems" in out


class TestCliCorpusMatch:
    def test_corpus_match_text(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["corpus-match", sql, xsd, "--top-k", "1", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "corpus-match" in out
        assert "1 registered, 1 retrieved" in out
        assert "match score" in out

    def test_corpus_match_json_envelope(self, schema_files, capsys):
        import json

        from repro.service import CorpusMatchResponse

        sql, xsd = schema_files
        assert main(["corpus-match", sql, xsd, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        response = CorpusMatchResponse.from_dict(payload)
        assert response.n_registered == 1
        assert response.candidates

    def test_corpus_match_needs_a_corpus(self, schema_files):
        sql, _ = schema_files
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus-match", sql])
        assert excinfo.value.code == 2

    def test_corpus_match_registered_name_with_db(self, schema_files, tmp_path, capsys):
        sql, xsd = schema_files
        db = str(tmp_path / "cli.db")
        assert main(["corpus-match", sql, xsd, "--db", db]) == 0
        capsys.readouterr()
        # The corpus persisted; now query by registered name, no files.
        assert main(["corpus-match", "b", "--db", db, "--top-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "reuse on" in out

    def test_corpus_match_unknown_name_exits_2(self, schema_files, tmp_path):
        sql, xsd = schema_files
        db = str(tmp_path / "cli2.db")
        assert main(["corpus-match", sql, xsd, "--db", db]) == 0
        with pytest.raises(SystemExit) as excinfo:
            main(["corpus-match", "nonexistent", "--db", db])
        assert excinfo.value.code == 2


class TestCliService:
    def test_match_json_envelope(self, schema_files, capsys):
        import json

        sql, xsd = schema_files
        assert main(["match", sql, xsd, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["routing"]["route"] in ("exact", "batch")
        assert payload["format_version"] == 1
        from repro.service import MatchResponse

        assert MatchResponse.from_dict(payload).source_name == payload["source"]["schema"]

    def test_match_route_override(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["match", sql, xsd, "--route", "batch"]) == 0
        assert "[route=batch]" in capsys.readouterr().out

    def test_match_cascade_json_envelope(self, schema_files, capsys):
        import json

        from repro.service import MatchResponse

        sql, xsd = schema_files
        assert main(["match", sql, xsd, "--cascade", "--oracle-budget", "8",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        response = MatchResponse.from_dict(payload)
        report = response.cascade
        assert report is not None
        assert report.plan.oracle == "thesaurus"     # --cascade's default
        assert report.plan.budget == 8
        assert report.n_escalated <= 8
        assert report.oracle_calls <= 8
        assert response.options.cascade == report.plan

    def test_match_cascade_text_summary(self, schema_files, capsys):
        sql, xsd = schema_files
        assert main(["match", sql, xsd, "--cascade", "--band", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "cascade:" in out
        assert "oracle calls" in out

    def test_match_without_cascade_has_no_report(self, schema_files, capsys):
        import json

        sql, xsd = schema_files
        assert main(["match", sql, xsd, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cascade"] is None
        assert payload["options"]["cascade"] is None

    def test_corpus_match_cascade_totals(self, schema_files, capsys):
        import json

        from repro.service import CorpusMatchResponse

        sql, xsd = schema_files
        assert main(["corpus-match", sql, xsd, "--cascade",
                     "--oracle-budget", "5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        response = CorpusMatchResponse.from_dict(payload)
        assert response.oracle_calls <= 5 * len(response.candidates)
        totals = response.cascade_totals()
        assert totals is not None
        assert totals == payload["cascade_totals"]
        for candidate in response.candidates:
            assert candidate.cascade is not None
            assert candidate.cascade.n_escalated <= 5

    def test_unknown_cascade_oracle_is_an_error(self, schema_files):
        sql, xsd = schema_files
        with pytest.raises(ValueError, match="unknown oracle"):
            main(["match", sql, xsd, "--cascade", "no_such_oracle"])

    def test_missing_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["match", str(tmp_path / "missing.sql"), str(tmp_path / "b.xsd")])
        assert excinfo.value.code == 2

    def test_unparseable_file_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "x.sql"
        bogus.write_text("NOT SQL AT ALL;")
        with pytest.raises(SystemExit) as excinfo:
            main(["tree", str(bogus)])
        assert excinfo.value.code == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_structurally_invalid_json_exits_2(self, tmp_path, capsys):
        # Well-formed JSON, right version, missing fields: still exit 2.
        bad = tmp_path / "x.json"
        bad.write_text('{"format_version": 1}')
        with pytest.raises(SystemExit) as excinfo:
            main(["tree", str(bad)])
        assert excinfo.value.code == 2
        assert "cannot parse" in capsys.readouterr().err
