"""A miniature dependently-typed kernel and typeclass elaborator for
studying how structure multiple inheritance interacts with definitional
equality and instance search."""

from .analyzer import (
    ANALYZER_REPORT_SCHEMA,
    CycleDetected,
    Diamond,
    Diamonds,
    GroupReport,
    HierGraph,
    PathGroup,
    PathLimitExceeded,
    PlacementReport,
    analyze,
    build_graph,
    check_diamond,
    commutes_under,
    diamond_rows,
    enumerate_diamonds,
    random_hierarchy,
    spanning_search,
)
from .declarations import DefDecl, Environment, OpaqueDecl, StructDecl
from .elaborator import (
    ElabError,
    Elaboration,
    EncodingStrategy,
    FieldTypeClash,
    InstanceInfo,
    elaborate,
)
from .kernel import (
    DEFAULT_CONFIG,
    DefEqConfig,
    IllTyped,
    KernelError,
    Trace,
    check_type,
    defeq,
    infer_type,
    normalize,
    unify,
    whnf,
)
from .resolution import AnswerTable, DepthExceeded, NotFound, ResolutionError, resolve
from .surface import (
    ParseError,
    ScopeError,
    SurfaceError,
    SurfaceModule,
    parse,
    parse_term,
)
from .terms import (
    App,
    Binder,
    BoundVar,
    Const,
    FreeVar,
    Lam,
    Meta,
    Mk,
    Pi,
    Proj,
    Sort,
    Term,
    apps,
    pp_term,
)

__version__ = "0.1.0"
