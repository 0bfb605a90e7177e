"""Path-wise vulnerability mitigation.

Given a program and a vulnerability location, this package finds every
program path from the entry point to the vulnerable statement, derives
candidate patch locations from the conditionals governing those paths,
synthesizes error-return mitigation patches, and ranks the patches by how
much of the test suite the patched program still passes.
"""

from .analysis import (
    CallGraph,
    ControlDepGraph,
    build_call_graph,
    compute_control_dependencies,
    compute_postdominators,
)
from .checks import cut_disconnects, fuzz_vulnerability
from .graphio import (
    GraphDocument,
    build_report,
    import_graph,
    pfr_display,
    pfr_percent,
)
from .harness import (
    Limits,
    PatchEvaluation,
    TestCase,
    TestSuite,
    evaluate_patches,
    load_suite,
    parse_suite,
    rank,
)
from .ir import BasicBlock, IRFunction, IRProgram
from .locate import CandidatePatchLocation, candidate_locations
from .minilang import (
    build_cfg,
    load_program,
    lower,
    parse,
    parse_file,
    run_program,
)
from .paths import (
    CallChain,
    Exploit,
    ProgramPathGraph,
    VulnerabilitySpec,
    build_program_path_graph,
    count_paths,
    enumerate_paths,
    intraprocedural_paths,
    resolve_vulnerability,
)
from .synth import (
    ErrorReturnValue,
    Patch,
    apply_patch,
    apply_patches,
    infer_error_return,
    patch_returns,
    synthesize_patch,
    synthesize_patches,
)

__version__ = "0.1.0"
