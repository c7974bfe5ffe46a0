"""Finite node-and-choice extensive-form games.

Build games from abstract nodes, choices, players, and exact-rational
utilities; derive plays, information sets, and strategies; enumerate
pure-strategy Nash equilibria; validate and compose structure-preserving
morphisms; extract subgames; and convert games to choice-sequence and
choice-set canonical styles with machine-checked isomorphism witnesses.
"""

from .errors import (
    AxiomViolation,
    DocumentError,
    DocumentSyntaxError,
    FormError,
    GameError,
    MorphismError,
    NcgError,
    PreformError,
    SearchBudgetExceeded,
    StrategySpaceTooLarge,
    TransformError,
    TreeError,
)
from .labels import Atom, NodeLabel, Seq, SetLabel
from .tree import (
    Play,
    Tree,
    TreeMorphism,
    build_tree,
    compose_tree_morphisms,
    identity_tree_morphism,
    is_tree_isomorphism,
    subtree_at,
    validate_tree_morphism,
)
from .preform import (
    DEFAULT_STRATEGY_CAP,
    Preform,
    PreformMorphism,
    build_preform,
    compose_preform_morphisms,
    count_grand_strategies,
    grand_strategies,
    identity_preform_morphism,
    is_grand_strategy,
    is_subpreform,
    play_of,
    validate_preform_morphism,
)
from .form import (
    Form,
    FormMorphism,
    build_form,
    compose_form_morphisms,
    grand_to_profile,
    identity_form_morphism,
    is_subform,
    player_strategies,
    profile_to_grand,
    validate_form_morphism,
)
from .game import (
    DEFAULT_SEARCH_BUDGET,
    Game,
    GameMorphism,
    IsoWitness,
    build_game,
    compose,
    find_isomorphism,
    identity_morphism,
    is_isomorphism,
    is_nash,
    is_subgame,
    nash_equilibria,
    subgame_at,
    validate_game_morphism,
)
from .transforms import (
    CanonicalForm,
    StyleReport,
    apply_utility_transform,
    canonicalize,
    relabel_game,
    style_report,
    to_choice_sequence,
    to_choice_set,
)
from .documents import (
    FORMAT_VERSION,
    load_game,
    parse_game,
    parse_morphism,
    parse_witness,
    serialize_game,
    serialize_morphism,
    serialize_witness,
)

__version__ = "0.1.0"
