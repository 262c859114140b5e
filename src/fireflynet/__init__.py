"""Self-organizing associative memory: competitive weight dynamics on a
recurrent layer, with network topology laid out by a firefly swarm."""

from .dynamics import (
    WeightMatrix,
    correlation_tensor,
    truncated_resolvent,
)
from .errors import (
    CompilerError,
    ConfigError,
    FireflynetError,
    FormatError,
    InvariantError,
    ParameterError,
    PatternAnnihilatedError,
    ShapeMismatchError,
)
from .firefly import (
    FireflyPopulation,
    GridLayout,
    SwarmParams,
    enforce_min_distance,
    swarm_step,
    synthesize_weights,
)
from .patterns import (
    Pattern,
    active_set,
    add_noise,
    cosine,
    fuse,
    gaussian_1d,
    gaussian_2d,
    load_image,
    mask,
    save_image,
)
from .plasticity import (
    EvolveReport,
    PlasticityParams,
    evolve_weights,
    haeussler_rhs,
)
from .trainer import (
    ExperimentReport,
    Model,
    RecallMetrics,
    TrainerConfig,
    complete,
    digit_template,
    init_model,
    load_model,
    present_pattern,
    recall,
    run_experiment,
    save_model,
    train,
)

__version__ = "0.1.0"
