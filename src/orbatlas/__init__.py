"""orbatlas: an exact, executable 2-category of reduced orbifold atlases.

Charts live on open rational polytope regions (dimensions 1 and 2) with
finite affine symmetry groups; affine rigidity makes every germ-level axiom
an exact rational computation.  The package presents the associated etale
groupoids, the structure functor between the two worlds with its hom-level
inverses, a generic right bicalculus of fractions localizing at refinements
or Morita equivalences, and the induced comparison between the two
localized bicategories.

Module map:
  geometry    exact region/affine/germ substrate
  atlas       charts, atlases, morphisms, 2-cells, classification, squares
  groupoid    presented etale groupoids, Morita checks, natural transforms
  fred        the structure functor and its inverses
  fractions   spans, fraction cells, BF axioms, choice tables, coherence
  gred        the induced functor on localizations, equivalence criteria
  cli         canonical JSON documents and the command-line front end
  fixtures    the standard catalog used by tests and examples
"""

from .geometry import (
    AffineMap,
    Germ,
    PartialAffineIso,
    Region,
    aff1,
    aff2,
    frac,
    germ_of,
)
from .atlas import (
    Atlas,
    ChangeOfCharts,
    Chart,
    Classification,
    Morphism,
    TwoCell,
    classify_morphism,
    compose_morphisms,
    equal_2cells,
    equal_morphisms,
    identity_2cell,
    identity_morphism,
    inclusion,
    induced_hom,
    morphism_from_lifts,
    pullback_square,
    pushforward,
    self_change_element,
    unique_2cell_open_embeddings,
)
from .groupoid import (
    ArrowFamily,
    GroupoidMorphism,
    NatTransf,
    PresentedGroupoid,
    coarse_equal,
    is_effective,
    is_morita,
    isotropy_order,
    kappa,
)
from .fred import (
    atlas_from_groupoid,
    correspondence_check,
    fred0,
    fred1,
    fred2,
    fred_inverse,
    fred_inverse2,
)
from .fractions import (
    ChoiceTable,
    FractionCell,
    Span,
    atlas_ops,
    cell_equal,
    check_bf,
    compose_spans,
    groupoid_ops,
    quasi_inverse,
    saturate,
    two_out_of_three,
    universal_embed,
    universal_embed2,
)
from . import gred
from .gred import equivalence_report

__all__ = [name for name in dir() if not name.startswith("_")]
