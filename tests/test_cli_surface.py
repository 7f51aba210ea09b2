"""The command-line surface: each subcommand's help and each flag's spelling and defaults.

SURFACE is the parser's table written out by hand, so a change to any flag shows here.
Each flag row is (option strings, dest, default, required, choices, type, nargs, help).
"""

import argparse

import pytest

from haarkit.cli import build_parser
from haarkit.quadrature import DEFAULT_NODES

GROUP_CHOICES = ("so2", "o2", "so3", "o3")
OUT = (("--out",), "out", None, False, None, None, None,
       "write output to this path instead of stdout")
CHART = (("--chart",), "chart", None, True, None, None, None, "chart file path or builtin:<tag>")
GROUP = (("--group",), "group", None, True, GROUP_CHOICES, None, None, None)
NODES = (("--nodes",), "nodes", 32, False, None, "int", None,
         "quadrature nodes per axis (default 32)")
AVERAGING = [
    (("--chart",), "chart", "", False, None, None, None,
     "chart to integrate in (default: the exact product rule)"),
    (("--nodes",), "nodes", 32, False, None, "int", None,
     "quadrature nodes per axis with --chart (default 32)"),
]

SURFACE = {
    "density": ("Evaluate the uniform density of a chart at a point.", [
        OUT, CHART,
        (("--point",), "point", None, True, None, None, None,
         "comma-separated chart coordinates (radians)"),
        (("--numeric",), "numeric", False, False, None, None, 0, "numeric density (default)"),
        (("--closed-form",), "closed_form", False, False, None, None, 0,
         "reference closed-form density"),
        NODES,
    ]),
    "normalize": ("Report the normalization constant C of a chart.", [OUT, CHART, NODES]),
    "sample": ("Draw uniform group elements.", [
        OUT, GROUP,
        (("--chart",), "chart", "", False, None, None, None,
         "built-in chart tag or alias (euler, polar, quaternion, ...)"),
        (("-n", "--count"), "count", 1, False, None, "int", None, "number of samples"),
        (("--seed",), "seed", 0, False, None, "int", None, "64-bit RNG seed"),
        (("--format",), "format", "json", False, ("json", "csv"), None, None,
         "json lines or row-major csv"),
    ]),
    "check-chart": ("Parse a chart, validate it, normalize it, and test invariance.", [
        OUT, CHART,
        (("--nodes",), "nodes", 24, False, None, "int", None,
         "quadrature nodes per axis (default 24)"),
        (("--tolerance",), "tolerance", 1e-06, False, None, "float", None,
         "invariance residual tolerance (default 1e-6)"),
    ]),
    "dim": ("Dimension of the invariant subspace of order-n tensors.", [
        OUT, GROUP,
        (("--order",), "order", None, True, None, "int", None, "tensor order n"),
        (("--method",), "method", None, False, ("closed", "quadrature", "both"), None, None,
         "closed-form sum, the trace formula on n + 2 angles, or both"),
        (("--format",), "format", "plain", False, ("plain", "json"), None, None, None),
    ]),
    "reynolds": ("Average a tensor over a group.", [
        OUT, GROUP,
        (("--tensor",), "tensor", None, True, None, None, None, "tensor JSON file"),
        *AVERAGING,
    ]),
    "orbit-moments": ("Quadrature and Monte Carlo moments of an orbit random variable.", [
        OUT, GROUP,
        (("--representation",), "representation", "sym2", False, ("sym2", "natural", "tensor"),
         None, None, None),
        (("--seed-tensor",), "seed_tensor", None, False, None, None, None, "seed tensor JSON file"),
        (("--diag",), "diag", None, False, None, None, None,
         "diagonal seed matrix, e.g. 1,2,3 (sym2 shorthand)"),
        *AVERAGING,
        (("--mc",), "mc", 0, False, None, "int", None, "Monte Carlo sample count (0 disables)"),
        (("--mc-seed",), "mc_seed", 0, False, None, "int", None, "Monte Carlo RNG seed"),
        (("--mc-chart",), "mc_chart", "", False, None, None, None,
         "sampling chart for Monte Carlo"),
    ]),
    "chart-change": ("Residual of the change-of-chart density identity at a point.", [
        OUT,
        (("--chart1",), "chart1", None, True, None, None, None,
         "source chart (file or builtin:<tag>)"),
        (("--chart2",), "chart2", None, True, None, None, None,
         "target chart (file or builtin:<tag>)"),
        (("--point",), "point", None, True, None, None, None, "coordinates in chart1"),
        (("--map",), "map", "auto", False, None, None, None,
         "'auto' (through the group element) or 'shift:dx1,dx2,...'"),
        NODES,
    ]),
}


def subcommands():
    """(name, help, parser) of each subcommand of build_parser, in help order."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(action.dest, action.help, sub.choices[action.dest])
            for action in sub._choices_actions]


def flags(parser):
    """The SURFACE rows of a subcommand's parser, its -h left out."""
    return [(tuple(a.option_strings), a.dest, a.default, a.required,
             None if a.choices is None else tuple(a.choices),
             None if a.type is None else a.type.__name__, a.nargs, a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def test_the_subcommands_are_the_table_in_help_order():
    assert [name for name, _, _ in subcommands()] == list(SURFACE)


@pytest.mark.parametrize("name", SURFACE)
def test_each_flag_keeps_its_spelling_default_type_and_help(name):
    [(help_text, parser)] = [(h, p) for n, h, p in subcommands() if n == name]
    assert help_text == parser.description == SURFACE[name][0]
    assert flags(parser) == SURFACE[name][1]


def test_every_nodes_default_but_check_charts_is_the_librarys():
    defaults = {name: parser.get_default("nodes") for name, _, parser in subcommands()
                if "--nodes" in parser._option_string_actions}
    assert defaults.pop("check-chart") == 24
    assert set(defaults) == {"density", "normalize", "reynolds", "orbit-moments", "chart-change"}
    assert set(defaults.values()) == {DEFAULT_NODES}
