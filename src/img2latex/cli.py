"""Command-line entry point: gen-data | train | predict | evaluate | inspect.

Exit codes are a stable scripting contract: 0 success, 1 I/O failure,
2 configuration or usage error, 3 numerical divergence during training.
Every command is deterministic given its seed and inputs, and train
echoes its effective configuration so a run can be reproduced from the
log alone.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checkpoint import CheckpointError, CheckpointNotFound
from .config import ConfigError, SCHEMA, format_effective, format_help, load_config
from .data import (END_ID, DataError, load_buckets, load_dataset,
                   pad_for_model, read_pgm, round_up, write_pgm)
from .decoding import DecodeError, beam_decode, check_search, greedy_decode
from .encoder import DOWNSAMPLE, positional_encoding
from .metrics import MetricError, MetricReport, bleu4, check_threshold, evaluate_pair
from .model import Model
from .synth import MINIMUMS, GrammarConfig, ParseError, SynthError, rasterize, synth_generate
from .training import DivergenceError, TrainError, train

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

DEFAULT_BEAM = 5
DEFAULT_THRESHOLD = 0.5


# ---------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------

def _load_model(path: str) -> Model:
    try:
        model, _ = Model.load(path)
    except CheckpointNotFound as exc:
        raise ConfigError(str(exc)) from None     # a usage error for --checkpoint
    return model


def _read_buckets(path):
    return load_buckets(path) if path else None


def _decode_manifest(args, row) -> tuple[list, str]:
    """Decode every --manifest example with the --checkpoint model.

    row(model, example, result) makes each example's output row, right
    after its decode.  Returns the rows and a summary of the decodes cut
    off at --max-len (their ids go to stderr) and images that fit no bucket.
    """
    check_search(args.beam, args.max_len)
    model = _load_model(args.checkpoint)
    buckets = _read_buckets(args.buckets)
    rows, cut_off, misfits = [], [], 0
    for ex in load_dataset(args.manifest):
        image, misfit = pad_for_model(ex.image, buckets)
        if args.greedy or args.beam == 1:
            res = greedy_decode(model, image, max_len=args.max_len)
        else:
            res = beam_decode(model, image, b=args.beam, max_len=args.max_len,
                              length_normalize=args.length_normalize)
        cut_off += [] if res.finished else [ex.id]
        misfits += misfit
        rows.append(row(model, ex, res))
    if cut_off:
        print(f"cut off at --max-len {args.max_len}: {' '.join(cut_off)}", file=sys.stderr)
    return rows, (f"{len(cut_off)} stopped at --max-len, "
                  f"{misfits} fit no bucket and were padded to a multiple of {DOWNSAMPLE}")


# ---------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------

# gen-data's flag for each generator setting of synth.MINIMUMS
_GEN_FLAGS = {"count": "--count", "seed": "--seed", "max_depth": "--max-depth",
              "max_terms": "--max-terms", "max_len": "--formula-max-len"}


def cmd_gen_data(args) -> int:
    for name, flag in _GEN_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < MINIMUMS[name]:
            raise ConfigError(f"{flag} must be at least {MINIMUMS[name]}, got {value}")
    grammar = GrammarConfig(max_depth=args.max_depth, max_len=args.formula_max_len,
                            max_terms=args.max_terms)
    stats = synth_generate(args.out, args.count, args.seed, grammar)
    # one covering bucket: every image padded to a common size keeps batch
    # composition (and batch-norm statistics) identical across epochs
    if stats["sizes"]:
        bw = max(round_up(w) for _, w in stats["sizes"])
        bh = max(round_up(h) for h, _ in stats["sizes"])
    else:
        bw = bh = DOWNSAMPLE
    with open(os.path.join(args.out, "buckets.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"{bw} {bh}\n")
    print(f"generated count={stats['count']} mean_len={stats['mean_len']:.1f} "
          f"median_len={stats['median_len']:.1f} max_len={stats['max_len']} "
          f"distinct_tokens={stats['distinct_tokens']} bucket={bw}x{bh} "
          f"out={args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------
# train
# ---------------------------------------------------------------------

def cmd_train(args) -> int:
    def echo(cfg):
        effective = format_effective(cfg)
        print("# effective config")
        print(effective)
        with open(os.path.join(args.out, "effective.cfg"), "w", encoding="utf-8") as fh:
            fh.write(effective + "\n")

    outcome = train(load_config(args.config, args.set or []), args.train_manifest,
                    args.val_manifest, args.buckets, args.out, phase=args.phase,
                    init=args.init, resume=args.resume, config_fn=echo, profile=args.profile)
    print(f"trained steps={outcome.steps_run} best_metric={outcome.best_metric:.6f} "
          f"best={outcome.best_path} last={outcome.last_path}"
          f"{' (stopped early)' if outcome.stopped_early else ''}")
    return EXIT_OK


# ---------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------

def cmd_predict(args) -> int:
    def row(model, ex, res):
        toks = " ".join(model.vocab[i] for i in res.tokens)
        score = res.normalized_score if args.length_normalize else res.score
        return f"{ex.id}\t{toks}\t{score:.6f}"
    lines, summary = _decode_manifest(args, row)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    print(f"predicted {len(lines)} sequences -> {args.out} ({summary})")
    return EXIT_OK


# ---------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------

def _render(tokens: list[str]) -> np.ndarray | None:
    try:
        return rasterize(tokens)
    except ParseError:
        return None


def cmd_evaluate(args) -> int:
    def row(model, ex, res):
        cand = [model.vocab[i] for i in res.tokens]
        return ex, cand, evaluate_pair(cand, ex.tokens, _render(cand), ex.image,
                                       threshold=args.threshold)
    check_threshold(args.threshold)
    rows, summary = _decode_manifest(args, row)
    header = "id\t" + "\t".join(MetricReport.COLUMNS)
    body = [f"{ex.id}\t{r.bleu4:.6f}\t{r.edit_distance_score:.6f}"
            f"\t{int(r.exact_match)}\t{int(r.exact_match_no_ws)}"
            for ex, _, r in rows]
    if rows:
        examples, cands, reports = zip(*rows)
        agg = (bleu4(list(cands), [ex.tokens for ex in examples]),
               float(np.mean([r.edit_distance_score for r in reports])),
               float(np.mean([r.exact_match for r in reports])),
               float(np.mean([r.exact_match_no_ws for r in reports])))
        body.append("ALL\t" + "\t".join(f"{v:.6f}" for v in agg))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(header + "\n" + "\n".join(body) + ("\n" if body else ""))
    print(f"evaluated {len(rows)} examples -> {args.out} ({summary})")
    return EXIT_OK


# ---------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------

def _write_heatmap(path, alpha: np.ndarray, h_prime: int, w_prime: int) -> None:
    """One attention map as a PGM, each weight spread over the
    DOWNSAMPLE x DOWNSAMPLE block of input pixels its cell covers.

    Cell values are quantized to 16 bits; the comment records the pixel
    total so `value / total` recovers weights that sum to exactly 1.
    """
    cells = np.rint(alpha.reshape(h_prime, w_prime) * 65535.0)
    total = int(cells.sum()) * DOWNSAMPLE ** 2
    big = np.kron(cells, np.ones((DOWNSAMPLE, DOWNSAMPLE)))
    write_pgm(path, big / 65535.0, maxval=65535,
              comments=(f"alpha-pixel-total {total}",))


def cmd_inspect(args) -> int:
    check_search(1, args.max_len)
    model = _load_model(args.checkpoint)
    buckets = _read_buckets(args.buckets)
    image, _ = pad_for_model(read_pgm(args.image), buckets)
    h_prime, w_prime = image.shape[0] // DOWNSAMPLE, image.shape[1] // DOWNSAMPLE
    os.makedirs(args.out, exist_ok=True)
    res = greedy_decode(model, image, max_len=args.max_len)
    emitted = res.tokens + ([END_ID] if res.finished else [])
    lines = ["step\ttoken_id\ttoken\theatmap"]
    for t, (tok, alpha) in enumerate(zip(emitted, res.alphas)):
        name = f"step_{t:03d}.pgm"
        _write_heatmap(os.path.join(args.out, name), alpha, h_prime, w_prime)
        lines.append(f"{t}\t{tok}\t{model.vocab[tok]}\t{name}")
    with open(os.path.join(args.out, "steps.tsv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if args.dump_pe:
        pe = positional_encoding(h_prime, w_prime, model.config.d, model.config.timescale)
        for c in range(pe.shape[0]):
            write_pgm(os.path.join(args.out, f"pe_{c:03d}.pgm"),
                      (pe[c] + 1.0) / 2.0)
    if args.dump_features:
        feats = model.encoder.encode(image[None, None]).data[0].reshape(h_prime, w_prime, -1)
        for c in range(feats.shape[2]):
            fmap = feats[:, :, c]
            span = fmap.max() - fmap.min()
            norm = (fmap - fmap.min()) / span if span > 0 else np.zeros_like(fmap)
            write_pgm(os.path.join(args.out, f"feature_{c:03d}.pgm"), norm)
    print(f"inspected {len(lines) - 1} attention steps -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------

def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beam", type=int, default=DEFAULT_BEAM,
                   help="beam width (default %(default)s)")
    p.add_argument("--greedy", action="store_true", help="greedy decoding")
    p.add_argument("--max-len", type=int, default=SCHEMA["max_len"].full,
                   help="decoding length cap (default %(default)s)")
    p.add_argument("--length-normalize", action="store_true",
                   help="rank hypotheses by length-normalized score")
    p.add_argument("--buckets", help="bucket file; pads inputs like training did")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="img2latex",
        description="Grayscale formula images to LaTeX token sequences.",
        epilog=format_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic dataset")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--count", type=int, default=32, help="number of examples")
    g.add_argument("--seed", type=int, default=7, help="generator seed")
    g.add_argument("--max-depth", type=int, default=2, help="max nesting depth")
    g.add_argument("--max-terms", type=int, default=3, help="max terms per level")
    g.add_argument("--formula-max-len", type=int, default=40,
                   help="max tokens per formula")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser(
        "train", help="run one training phase",
        epilog=format_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    t.add_argument("--train-manifest", required=True)
    t.add_argument("--val-manifest", help="defaults to the training manifest")
    t.add_argument("--buckets", required=True, help="bucket file (W H per line)")
    t.add_argument("--out", required=True, help="run directory")
    t.add_argument("--phase", choices=("mle", "rl"), default="mle")
    t.add_argument("--config", help="config file (key = value lines)")
    t.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key (repeatable)")
    t.add_argument("--init", help="start from this checkpoint, fresh optimizer")
    t.add_argument("--resume", help="continue this checkpoint bit-exactly")
    t.add_argument("--profile", metavar="PATH",
                   help="write the first step's per-op tape records, output bytes "
                        "and VJP seconds to PATH as a TSV")
    t.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="decode a manifest to a TSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="output TSV path")
    _add_decode_flags(p)
    p.set_defaults(func=cmd_predict)

    e = sub.add_parser("evaluate", help="score a checkpoint against references")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--out", required=True, help="output TSV path")
    e.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="binarization threshold for image metrics")
    _add_decode_flags(e)
    e.set_defaults(func=cmd_evaluate)

    i = sub.add_parser("inspect", help="dump per-step attention heatmaps")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--image", required=True, help="input PGM image")
    i.add_argument("--out", required=True, help="output directory")
    i.add_argument("--max-len", type=int, default=SCHEMA["max_len"].full)
    i.add_argument("--buckets", help="bucket file; pads input like training did")
    i.add_argument("--dump-pe", action="store_true",
                   help="also write positional-encoding channels")
    i.add_argument("--dump-features", action="store_true",
                   help="also write encoder feature maps")
    i.set_defaults(func=cmd_inspect)
    return parser


# every character str.splitlines breaks at, written as its escape, so an
# error that quotes a bad input still prints as one line
_ESCAPE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {str(exc).translate(_ESCAPE_BREAKS)}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        return _fail(exc, EXIT_DIVERGED)
    except (ConfigError, TrainError, DecodeError, MetricError) as exc:
        return _fail(exc, EXIT_CONFIG)
    except (DataError, SynthError, CheckpointError, OSError) as exc:
        return _fail(exc, EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
