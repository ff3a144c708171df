import random

import pytest

from stpsolve import (
    CountMismatch,
    InputError,
    MissingHeader,
    NonPositiveWeight,
    SteinerTree,
    StpError,
    VertexOutOfRange,
    dreyfus_wagner,
    parse_gr,
    parse_instance,
    parse_stp,
    solve,
    validate_tree,
    write_instance,
    write_solution,
)
from stpsolve import instance_io
from stpsolve.cli import main
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


class TestIntegerFields:
    """Integer fields are an optional sign and ASCII digits."""

    @pytest.mark.parametrize(
        "line, mangled",
        [
            ("Nodes 3", "Nodes 0_3"),
            ("Nodes 3", "Nodes ３"),
            ("E 1 2 2", "E 0_1 2 2"),
            ("E 1 2 2", "E １ 2 2"),
            ("E 1 2 2", "E 1 2 1_0"),
            ("E 1 2 2", "E 1 2 ١٠"),
            ("T 3", "T 0_3"),
            ("T 3", "T ３"),
        ],
    )
    def test_integers_are_ascii_digits(self, line, mangled):
        # int() reads each of these as a valid number.
        assert line in PATH_STP
        with pytest.raises(FormatError, match="expected an integer"):
            parse_instance(PATH_STP.replace(line, mangled))

    def test_an_integer_too_long_to_convert(self):
        with pytest.raises(FormatError, match="expected an integer"):
            parse_instance(PATH_STP.replace("E 1 2 2", "E 1 2 " + "1" * 5000))

    def test_leading_zeros_are_digits(self):
        parsed = parse_instance(PATH_STP.replace("E 1 2 2", "E 1 2 007"))
        assert parsed.instance.network.edges == ((0, 1, 7), (1, 2, 3))

    @pytest.mark.parametrize("zero", ["+0", "-0"])
    def test_a_signed_zero_cost_is_not_positive(self, zero):
        with pytest.raises(NonPositiveWeight):
            parse_instance(PATH_STP.replace("E 1 2 2", "E 1 2 " + zero))

    def test_a_signed_integer_is_an_integer(self):
        text = PATH_STP.replace("Nodes 3", "Nodes +3").replace("T 3", "T +3")
        signed = parse_instance(text).instance
        assert signed.network.edges == ((0, 1, 2), (1, 2, 3))
        assert signed.terminals == frozenset({0, 2})


def same_parse(a, b):
    """Whether two parses give the same edges, terminals and labels."""
    return (
        a.instance.network.edges == b.instance.network.edges
        and a.instance.terminals == b.instance.terminals
        and a.labels == b.labels
    )


class TestDetectFormat:
    def test_detects_both(self):
        assert detect_format(PATH_STP) == "stp"
        assert detect_format(STAR_GR) == "gr"
        assert same_parse(parse_instance(PATH_STP), parse_stp(PATH_STP))
        assert same_parse(parse_instance(STAR_GR), parse_gr(STAR_GR))

    def test_comment_lines_before_a_gr_file_are_skipped(self):
        text = "c toy instance\nC another\n" + STAR_GR
        assert detect_format(text) == "gr"
        assert same_parse(parse_instance(text), parse_gr(STAR_GR))

    def test_a_comment_line_before_the_stp_magic_is_rejected(self):
        # STP files start with the magic; the parser checks that first row.
        with pytest.raises(FormatError):
            parse_instance("c toy instance\n" + PATH_STP)

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            detect_format("hello world\n")

    @pytest.mark.parametrize("text", [PATH_STP, STAR_GR], ids=["stp", "gr"])
    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    def test_one_byte_order_mark_is_skipped(self, text, as_bytes):
        marked = "\ufeff" + text
        parsed = parse_instance(marked.encode("utf-8") if as_bytes else marked)
        assert same_parse(parsed, parse_instance(text))
        with pytest.raises(FormatError):
            parse_instance("\ufeff" + marked)

    @pytest.mark.parametrize("text", [PATH_STP, STAR_GR], ids=["stp", "gr"])
    def test_a_file_is_tokenized_once(self, text, monkeypatch):
        calls, real = [], instance_io._tokenize

        def tokenize(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(instance_io, "_tokenize", tokenize)
        parse_instance(text.encode("utf-8"))
        parse_instance(text)
        assert calls == [text, text]


class TestDeclaredNodes:
    def test_a_huge_node_count_keeps_only_the_named_vertices(self):
        # Nothing is allocated per declared node: the count only bounds the
        # labels.
        text = PATH_STP.replace("Nodes 3", "Nodes 1000000000000")
        parsed = parse_instance(text)
        assert parsed.instance.network.vertex_count == 3
        assert parsed.labels == (1, 2, 3)


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


def mangle(rng, data: bytes) -> bytes:
    """Cut ``data`` at a random byte, overwrite 1-4 of its bytes, or insert a
    token that a number field might choke on."""
    kind = rng.randrange(3)
    if kind == 0:
        return data[: rng.randrange(len(data))]
    if kind == 1:
        out = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] = rng.randrange(256)
        return bytes(out)
    token = rng.choice([b"-", b"nan", b"1e5", str(rng.randrange(10**19, 10**20)).encode()])
    at = rng.randrange(len(data) + 1)
    return data[:at] + token + data[at:]


def mangled_texts(seed, count):
    """``count`` mangled ``.stp`` and ``.gr`` files of seeded random
    instances, as (suffix, bytes) pairs."""
    rng = random.Random(seed)
    for i in range(count):
        fmt = ("stp", "gr")[i % 2]
        text = write_instance(random_instance(rng), fmt=fmt).encode("utf-8")
        yield fmt, mangle(rng, text)


class TestMangledInput:
    def test_parse_raises_only_stp_errors_and_parsed_instances_solve(self):
        parsed_count = 0
        for _, data in mangled_texts(37, 1000):
            try:
                parsed = parse_instance(data)
            except StpError:
                continue
            parsed_count += 1
            inst = parsed.instance
            result = solve(inst)
            assert result.status == "optimal"
            assert validate_tree(inst, result.tree) == result.cost
        assert parsed_count >= 20  # most mangled files fail to parse, not all

    def test_cli_exits_0_or_2_without_a_traceback(self, tmp_path, capsys):
        codes = set()
        for i, (fmt, data) in enumerate(mangled_texts(41, 40)):
            target = tmp_path / f"mangled{i}.{fmt}"
            target.write_bytes(data)
            code = main([str(target)])
            err = capsys.readouterr().err
            assert code in (0, 2)
            assert "Traceback" not in err
            codes.add(code)
        assert codes == {0, 2}
