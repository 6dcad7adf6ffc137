"""CheetahLite template engine."""

import builtins
import shlex

import pytest
from hypothesis import given, strategies as st

from repro.galaxy.errors import TemplateError
from repro.galaxy.templating import CheetahLite


class TestSubstitution:
    def test_plain_and_braced(self):
        template = CheetahLite("run $tool with ${threads}")
        assert template.render({"tool": "racon", "threads": 4}) == "run racon with 4"

    def test_dotted_access_on_mappings_and_objects(self):
        class Obj:
            value = 7

        template = CheetahLite("$a.b $o.value")
        assert template.render({"a": {"b": 3}, "o": Obj()}) == "3 7"

    def test_none_renders_empty(self):
        assert CheetahLite("x$maybe!").render({"maybe": None}) == "x!"

    def test_undefined_variable_raises(self):
        with pytest.raises(TemplateError):
            CheetahLite("$missing").render({})

    def test_dunder_names_allowed(self):
        """GYAN's __galaxy_gpu_enabled__ key must resolve (paper Code 3)."""
        template = CheetahLite("$__galaxy_gpu_enabled__")
        assert template.render({"__galaxy_gpu_enabled__": "true"}) == "true"

    def test_braced_expression(self):
        assert CheetahLite("${threads * 2}").render({"threads": 3}) == "6"


class TestConditionals:
    RACON = CheetahLite(
        "#if $__galaxy_gpu_enabled__ == \"true\"\n"
        "racon_gpu --cudapoa-batches $batches\n"
        "#else\n"
        "racon -t $threads\n"
        "#end if"
    )

    def test_gpu_arm(self):
        out = self.RACON.render_command(
            {"__galaxy_gpu_enabled__": "true", "batches": 16, "threads": 4}
        )
        assert out == "racon_gpu --cudapoa-batches 16"

    def test_cpu_arm(self):
        out = self.RACON.render_command(
            {"__galaxy_gpu_enabled__": "false", "batches": 16, "threads": 4}
        )
        assert out == "racon -t 4"

    def test_elif_chain(self):
        template = CheetahLite(
            "#if $n > 10\nbig\n#elif $n > 5\nmedium\n#else\nsmall\n#end if"
        )
        assert template.render_command({"n": 20}) == "big"
        assert template.render_command({"n": 7}) == "medium"
        assert template.render_command({"n": 1}) == "small"

    def test_nested_ifs(self):
        template = CheetahLite(
            "#if $a\n#if $b\nboth\n#else\nonly-a\n#end if\n#end if"
        )
        assert template.render_command({"a": True, "b": True}) == "both"
        assert template.render_command({"a": True, "b": False}) == "only-a"
        assert template.render_command({"a": False, "b": True}) == ""

    def test_unterminated_if_rejected(self):
        with pytest.raises(TemplateError):
            CheetahLite("#if $a\nx")

    def test_orphan_end_rejected(self):
        with pytest.raises(TemplateError):
            CheetahLite("#end if")


class TestLoopsAndSet:
    def test_for_loop(self):
        template = CheetahLite("#for $f in $files\n--input $f\n#end for")
        out = template.render_command({"files": ["a.fa", "b.fa"]})
        assert out == "--input a.fa --input b.fa"

    def test_set_assignment(self):
        template = CheetahLite('#set $mode = "gpu" if $on else "cpu"\nmode=$mode')
        assert template.render_command({"on": True}) == "mode=gpu"
        assert template.render_command({"on": False}) == "mode=cpu"

    def test_malformed_set_rejected(self):
        with pytest.raises(TemplateError):
            CheetahLite("#set nonsense")

    def test_malformed_for_rejected(self):
        with pytest.raises(TemplateError):
            CheetahLite("#for broken\n#end for")


class TestSafety:
    def test_builtins_not_reachable(self):
        with pytest.raises(TemplateError):
            CheetahLite("${open('/etc/passwd')}").render({})

    def test_import_not_reachable(self):
        with pytest.raises(TemplateError):
            CheetahLite("${__import__('os')}").render({})

    def test_whitelisted_builtins_work(self):
        assert CheetahLite("${len(items)}").render({"items": [1, 2, 3]}) == "3"
        assert CheetahLite("${str(min(2, 1))}").render({}) == "1"


class TestRenderCommand:
    def test_whitespace_collapsed_to_single_line(self):
        template = CheetahLite("a\n\n   b\n c  ")
        assert template.render_command({}) == "a b c"

    @given(st.integers(min_value=0, max_value=99), st.integers(min_value=0, max_value=99))
    def test_values_always_land_verbatim(self, threads, batches):
        template = CheetahLite("tool -t $threads -b $batches")
        out = template.render_command({"threads": threads, "batches": batches})
        assert out == f"tool -t {threads} -b {batches}"


def _eval_str_failure(expression: str, python_expr: str) -> str:
    """The text a source-string evaluation (the engine before it kept
    code objects) raised for ``expression``, on this interpreter."""
    try:
        eval(python_expr, {"__builtins__": {}}, {})
    except Exception as exc:
        return f"failed to evaluate {expression!r}: {exc}"
    raise AssertionError(f"{python_expr!r} evaluated")


class TestCompileOnce:
    RACON = (
        '#if $__galaxy_gpu_enabled__ == "true"\n'
        "racon_gpu -t ${threads} --cudapoa-batches $batches\n"
        "#else\n"
        "racon -t ${threads * 2}\n"
        "#end if\n"
        " reads.fa"
    )

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Sources handed to ``compile`` as expressions, in call order."""
        real, seen = builtins.compile, []

        def spy(source, filename, mode, *args, **kwargs):
            if filename == "<string>" and mode == "eval":
                seen.append(source)
            return real(source, filename, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", spy)
        return seen

    def test_every_expression_compiles_once_at_construction(self, compiled):
        template = CheetahLite(self.RACON)
        every = ['__galaxy_gpu_enabled__ == "true"', "threads", "threads * 2"]
        assert compiled == every  # source order, both arms
        ns = {"__galaxy_gpu_enabled__": "true", "threads": 4, "batches": 1}
        for _ in range(1000):
            assert template.render_command(ns) == (
                "racon_gpu -t 4 --cudapoa-batches 1 reads.fa"
            )
        ns["__galaxy_gpu_enabled__"] = "false"
        for _ in range(10):
            assert template.render_argv(ns)[0] == "racon -t 8 reads.fa"
        assert compiled == every  # a render compiles nothing

    def test_construction_evaluates_nothing(self):
        template = CheetahLite(self.RACON + "\n${1 / 0} $undefined")
        with pytest.raises(TemplateError, match="division by zero"):
            template.render({"__galaxy_gpu_enabled__": "false", "threads": 1})

    def test_inner_blanks_in_braces(self):
        assert CheetahLite("-t ${ threads }").render({"threads": 4}) == "-t 4"
        assert CheetahLite("-t ${\tthreads * 2 }").render({"threads": 4}) == "-t 8"

    def test_bad_expression_raises_at_construction_with_the_same_text(self):
        """Real Cheetah compiles the whole template at load; the text is
        the one the source-string engine raised on the first render."""
        with pytest.raises(TemplateError) as excinfo:
            CheetahLite("#if $gpu ==\nx\n#end if")
        message = str(excinfo.value)
        assert message == _eval_str_failure("$gpu ==", "gpu ==")
        assert message.startswith("failed to evaluate '$gpu ==': invalid syntax")
        assert message.endswith("(<string>, line 1)")

    def test_runtime_failure_text_unchanged(self):
        with pytest.raises(TemplateError) as excinfo:
            CheetahLite("${1 / 0}").render({})
        assert str(excinfo.value) == "failed to evaluate '1 / 0': division by zero"

    @pytest.mark.parametrize(
        "source, expression, python_expr",
        [
            ("#if $gpu ==\nx\n#end if", "$gpu ==", "gpu =="),
            ("#if $a\nx\n#elif $b $c\ny\n#end if", "$b $c", "b c"),
            ("#set $mode = (1,\nrun", "(1,", "(1,"),
            ("#for $f in $files[\nx\n#end for", "$files[", "files["),
            ("#if $a\nok\n#else\n${threads +}\n#end if", "threads +", "threads +"),
        ],
    )
    def test_construction_names_the_expression(self, source, expression, python_expr):
        with pytest.raises(TemplateError) as excinfo:
            CheetahLite(source)
        assert str(excinfo.value) == _eval_str_failure(expression, python_expr)

    def test_first_bad_expression_in_source_order_is_reported(self):
        with pytest.raises(TemplateError, match=r"^failed to evaluate '\$a ==': "):
            CheetahLite("#if $a ==\n${b +}\n#end if")


class TestDollarEscape:
    def test_galaxy_slots_default_reaches_argv_as_one_token(self):
        template = CheetahLite(r"racon -t \${GALAXY_SLOTS:-4} $reads")
        command_line, argv = template.render_argv({"reads": "reads.fa"})
        assert command_line == "racon -t ${GALAXY_SLOTS:-4} reads.fa"
        assert argv == ["racon", "-t", "${GALAXY_SLOTS:-4}", "reads.fa"]

    def test_escaped_plain_name_is_literal(self):
        assert CheetahLite(r"cd \$HOME && ls").render({}) == "cd $HOME && ls"

    def test_escapes_and_placeholders_mix_on_one_line(self):
        template = CheetahLite(r"\$A$b\$C ${d}\$")
        assert template.render({"b": 1, "d": 2}) == "$A1$C 2$"

    def test_non_placeholder_dollars_stay(self):
        assert CheetahLite("cost: 5$ or $5 ${}").render({}) == "cost: 5$ or $5 ${}"


# Blanks str.split knows and shlex does not (and the reverse is empty):
# normalisation must remove every one before the token path is exact.
_BLANKS = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003"
_LINE_TEXT = st.text(alphabet="ab-=/." + _BLANKS + "'\"\\", max_size=40)


def _shlex_reference(command_line):
    try:
        return shlex.split(command_line)
    except ValueError as exc:  # unbalanced quote, dangling escape
        return str(exc)


class TestRenderArgv:
    def test_plain_line_is_its_blank_separated_runs(self):
        template = CheetahLite("racon   -t $threads\n\n reads.fa ")
        assert template.render_argv({"threads": 4}) == (
            "racon -t 4 reads.fa", ["racon", "-t", "4", "reads.fa"],
        )

    def test_quotes_and_escapes_go_through_shlex(self):
        template = CheetahLite("tool --name \"a  b\" 'c d' e\\ f ''")
        command_line, argv = template.render_argv({})
        assert command_line == "tool --name \"a b\" 'c d' e\\ f ''"
        assert argv == ["tool", "--name", "a b", "c d", "e f", ""]

    def test_empty_render(self):
        assert CheetahLite("#if $a\nx\n#end if").render_argv({"a": False}) == ("", [])

    @given(_LINE_TEXT, _LINE_TEXT)
    def test_argv_equals_shlex_split_of_render_command(self, literal, value):
        """The token path against the pair it replaced, text arriving
        both as template source and through a substituted parameter."""
        # splitlines() drops a trailing line break before render sees it;
        # everything else in the literal must survive to the comparison.
        template = CheetahLite(f"tool {literal}\n $value end")
        ns = {"value": value}
        expected = _shlex_reference(template.render_command(ns))
        try:
            command_line, argv = template.render_argv(ns)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert command_line == template.render_command(ns)
            assert argv == expected
