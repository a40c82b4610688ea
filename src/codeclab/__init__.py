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
    midpoint_scalar_codec,
    nested_scalar_codec,
)
from .blockdct import BlockDctCodec, dct2_8x8, scale_quant_table  # noqa: F401
from .external import (  # noqa: F401
    ExternalCodec,
    ExternalCodecError,
    ExternalCodecSpec,
)
from .chains import (  # noqa: F401
    RhoEstimate,
    compress_chain,
    distortion,
    evaluate_cell,
    rho_from_outcomes,
    sample_quality_sequence,
)
from .registry import make_codec  # noqa: F401
from .protocol import (  # noqa: F401
    ConfigError,
    EvalConfig,
    EvalReport,
    Theorem1Record,
    compute_rd_curves,
    run_protocol,
    theorem1_from_outcomes,
    verify_strong_idempotence,
)
from .report import emit_report, render_svg  # noqa: F401
