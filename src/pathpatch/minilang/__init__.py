"""MiniLang frontend: a one-pass parser into the IR, and the interpreter."""

from .interp import ExecutionResult, run_program
from .parser import FrontendError, LoweringError, ParseError, parse, parse_file

__all__ = [
    "ExecutionResult",
    "FrontendError",
    "LoweringError",
    "ParseError",
    "parse",
    "parse_file",
    "run_program",
]


def load_program(path):
    """Parse a MiniLang source file into the IR."""
    return parse_file(path)
