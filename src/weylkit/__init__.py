"""Exact tools for type-D Levi combinatorics, signed-permutation relative
Weyl groups, spin-monomial extended Weyl groups, character extension, and
two-level stabilizer verification."""

__version__ = "0.1.0"

from .root_levi import decompose, all_levi_subsets, Decomposition
from .signed_perm import rel_weyl, rel_weyl_oracle, rel_weyl_matches_oracle
from .torus_model import center_elements, lang2
from .spin_monomial import verify_relations
from .group_engine import FiniteGroup, closure, quaternion_group
from .char_engine import (
    CharTable,
    extends_to,
    linear_ext_cocycle,
    maximal_extendibility,
    verify_halves_extension,
    wreath_ext_map,
    cor_tool_build,
    transversal_check,
)
from .shadow import (
    OrbitSpec,
    make_shadow,
    validate,
    build_groups,
    q_split,
    table1_case,
    verify_stable_cover,
    enumerate_shadows,
    sweep_stable_cover,
    verify_random_shadows,
)
# bench/tracer.py looks every weylkit module, cli included, up in sys.modules
# right after `import weylkit`, so the CLI module is loaded here.  This is
# also why `python -m weylkit.cli` warns that the module was already imported.
from . import cli  # noqa: F401
