import random

import pytest

from stpsolve import (
    CountMismatch,
    InputError,
    MissingHeader,
    NonPositiveWeight,
    SteinerTree,
    VertexOutOfRange,
    dreyfus_wagner,
    parse_gr,
    parse_instance,
    parse_stp,
    solve,
    write_instance,
    write_solution,
)
from stpsolve.instance_io import FormatError, detect_format
from conftest import random_instance

PATH_STP = """33D32945 STP File, STP Format Version 1.0
SECTION Graph
Nodes 3
Edges 2
E 1 2 2
E 2 3 3
END

SECTION Terminals
Terminals 2
T 1
T 3
END

EOF
"""

STAR_GR = """SECTION Graph
Nodes 4
Edges 3
E 1 2 2
E 1 3 3
E 1 4 4
END
SECTION Terminals
Terminals 3
T 2
T 3
T 4
END
EOF
"""


class TestParseStp:
    def test_minimal_file_is_the_path_fixture(self):
        parsed = parse_stp(PATH_STP)
        inst = parsed.instance
        assert inst.network.vertex_count == 3
        assert inst.network.edges == ((0, 1, 2), (1, 2, 3))
        assert inst.terminals == frozenset({0, 2})
        assert parsed.labels == (1, 2, 3)

    def test_duplicate_edges_keep_minimum(self):
        text = PATH_STP.replace("Edges 2", "Edges 3").replace(
            "E 1 2 2", "E 1 2 5\nE 1 2 3"
        )
        parsed = parse_stp(text)
        assert parsed.instance.network.edges[0] == (0, 1, 3)

    def test_zero_weight_rejected(self):
        with pytest.raises(NonPositiveWeight):
            parse_stp(PATH_STP.replace("E 1 2 2", "E 1 2 0"))

    def test_missing_header(self):
        with pytest.raises(MissingHeader):
            parse_stp("\n".join(PATH_STP.splitlines()[1:]))

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            parse_stp(PATH_STP.replace("E 2 3 3", "E 2 9 3"))

    def test_unknown_sections_are_skipped(self):
        text = PATH_STP.replace(
            "SECTION Graph",
            'SECTION Comment\nName "toy"\nCreator "nobody"\nEND\n\nSECTION Graph',
        )
        assert parse_stp(text).instance.network.edge_count == 2

    def test_windows_line_endings_and_case(self):
        text = PATH_STP.replace("\n", "\r\n").replace("SECTION", "Section")
        assert parse_stp(text).instance.terminals == frozenset({0, 2})


class TestParseGr:
    def test_star(self):
        parsed = parse_gr(STAR_GR)
        inst = parsed.instance
        assert inst.network.vertex_count == 4
        assert inst.network.edge_count == 3
        assert len(inst.terminals) == 3

    def test_truncated_section(self):
        with pytest.raises(FormatError):
            parse_gr(STAR_GR.replace("END\nSECTION Terminals", "SECTION Terminals"))

    def test_terminal_count_mismatch(self):
        with pytest.raises(CountMismatch):
            parse_gr(STAR_GR.replace("Terminals 3", "Terminals 2"))

    def test_edge_count_mismatch(self):
        with pytest.raises(CountMismatch):
            parse_gr(STAR_GR.replace("Edges 3", "Edges 4"))

    def test_comment_lines_ignored(self):
        assert parse_gr("c toy instance\n" + STAR_GR).instance.network.edge_count == 3

    def test_stray_vertices_dropped(self):
        text = STAR_GR.replace("Nodes 4", "Nodes 6").replace(
            "E 1 4 4", "E 1 4 4\nE 5 6 9"
        ).replace("Edges 3", "Edges 4")
        parsed = parse_gr(text)
        assert parsed.instance.network.vertex_count == 4
        assert parsed.labels == (1, 2, 3, 4)

    def test_terminals_in_separate_components_rejected(self):
        text = STAR_GR.replace("Nodes 4", "Nodes 6").replace(
            "E 1 4 4", "E 1 4 4\nE 5 6 9"
        ).replace("Edges 3", "Edges 4").replace("T 4", "T 5")
        with pytest.raises(InputError):
            parse_gr(text)


class TestTruncatedLines:
    """A line cut short before its value is a format error, not a crash."""

    @pytest.mark.parametrize(
        "line, cut",
        [
            ("Nodes 3", "Nodes"),
            ("Edges 2", "Edges"),
            ("Terminals 2", "Terminals"),
            ("T 3", "T"),
            ("E 2 3 3", "E"),
            ("E 2 3 3", "E 2"),
            ("E 2 3 3", "E 2 3"),
        ],
    )
    def test_missing_value(self, line, cut):
        assert line in PATH_STP
        with pytest.raises(FormatError):
            parse_instance(PATH_STP.replace(line, cut))

    def test_non_utf8_bytes(self):
        with pytest.raises(FormatError):
            parse_instance(PATH_STP.encode("utf-8") + b"\xff\xfe")

    def test_utf8_bytes_parse_like_text(self):
        from_bytes = parse_instance(PATH_STP.encode("utf-8")).instance
        from_text = parse_instance(PATH_STP).instance
        assert from_bytes.network.edges == from_text.network.edges
        assert from_bytes.terminals == from_text.terminals


class TestDetectFormat:
    def test_detects_both(self):
        assert detect_format(PATH_STP) == "stp"
        assert detect_format(STAR_GR) == "gr"
        assert parse_instance(PATH_STP).source_format == "stp"

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            detect_format("hello world\n")


class TestWriteSolution:
    def test_path_optimum(self):
        parsed = parse_stp(PATH_STP)
        _, tree = dreyfus_wagner(parsed.instance, 0)
        text = write_solution(tree, parsed.instance.network, parsed.labels)
        assert text == "VALUE 5\n1 2\n2 3\n"

    def test_diamond_optimum(self, fix_diamond):
        _, tree = dreyfus_wagner(fix_diamond, 0)
        labels = tuple(i + 1 for i in range(4))
        text = write_solution(tree, fix_diamond.network, labels)
        assert text.splitlines()[0] == "VALUE 2"
        assert len(text.splitlines()) == 3

    def test_single_terminal(self):
        parsed = parse_gr(STAR_GR.replace("Terminals 3", "Terminals 1")
                          .replace("T 2\nT 3\nT 4", "T 2"))
        tree = SteinerTree(frozenset(), min(parsed.instance.terminals), 0)
        text = write_solution(tree, parsed.instance.network, parsed.labels)
        assert text == "VALUE 0\n"


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["gr", "stp"])
    def test_random_instances_round_trip(self, fmt):
        rng = random.Random(29)
        for _ in range(15):
            inst = random_instance(rng, max_n=10)
            text = write_instance(inst, fmt=fmt)
            parsed = parse_instance(text, fmt)
            back = parsed.instance
            assert back.network.vertex_count == inst.network.vertex_count
            assert back.network.edges == inst.network.edges
            assert back.terminals == inst.terminals

    def test_emitted_value_matches_recomputed_cost(self):
        rng = random.Random(31)
        for _ in range(10):
            inst = random_instance(rng, max_n=10)
            result = solve(inst)
            labels = tuple(i + 1 for i in range(inst.network.vertex_count))
            text = write_solution(result.tree, inst.network, labels)
            assert text.splitlines()[0] == f"VALUE {result.cost}"
