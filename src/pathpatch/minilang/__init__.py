"""MiniLang frontend: parser, lowering and interpreter."""

from .interp import ExecutionResult, run_program
from .lower import build_cfg, lower
from .nodes import FrontendError, LoweringError, ParseError, ProgramTree
from .parser import parse, parse_file

__all__ = [
    "ExecutionResult",
    "FrontendError",
    "LoweringError",
    "ParseError",
    "ProgramTree",
    "build_cfg",
    "lower",
    "parse",
    "parse_file",
    "run_program",
]


def load_program(path):
    """Parse and lower a MiniLang source file."""
    return lower(parse_file(path))
