"""codeclab: multi-round varying-quality re-compression stability lab."""

__version__ = "0.1.0"

from .signals import (  # noqa: F401
    Dataset,
    ImageBuffer,
    PnmError,
    SourceVector,
    generate_uniform_source,
    load_dataset,
    parse_pnm,
    serialize_pnm,
)
from .ladders import (  # noqa: F401
    CodebookLadder,
    build_midpoint_ladder,
    build_nested_ladder,
)
from .codecs import (  # noqa: F401
    Bitstream,
    Codec,
    CodecError,
    ScalarQuantizerCodec,
)
from .blockdct import BlockDctCodec, dct2_8x8, scale_quant_table  # noqa: F401
from .external import (  # noqa: F401
    ExternalCodec,
    ExternalCodecError,
    ExternalCodecSpec,
)
from .chains import (  # noqa: F401
    RhoEstimate,
    Theorem1Record,
    distortion,
    rho_from_outcomes,
    sample_quality_sequence,
    sweep_levels,
    theorem1_from_outcomes,
)
from .registry import make_codec  # noqa: F401
from .protocol import (  # noqa: F401
    ConfigError,
    EvalConfig,
    EvalReport,
    rd_points,
    run_protocol,
    top_cell_inputs,
    verify_strong_idempotence,
)
from .report import emit_report, render_svg  # noqa: F401
