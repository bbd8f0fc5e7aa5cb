"""One-command roofline attribution report for the zoo models.

Calibrates (or reloads the cached) host roofline — measured GEMM peak
FLOP/s and stream bandwidth — then compiles, instruments, runs, and
attributes each requested model: every layer gets its wall time,
measured FLOPs/bytes, arithmetic intensity, attained fraction of the
attainable roof, and a compute/memory-bound verdict.  The summary line
per model reports the attribution engine's own health metric,
``span coverage`` (the fraction of wall time explained by spans).

Run::

    PYTHONPATH=src python examples/roofline_report.py
    PYTHONPATH=src python examples/roofline_report.py --models vgg16 --workers 2 \\
        --jsonl vgg16_attrib.jsonl
"""

import argparse

from repro.obs.attrib import attribute_model_run
from repro.obs.roofline import get_roofline

DEFAULT_MODELS = ("lenet5", "vgg16", "googlenet")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--models", nargs="+", default=list(DEFAULT_MODELS), help="zoo model names"
    )
    parser.add_argument("--bits", type=int, default=0, help="quantization bits (0 = off)")
    parser.add_argument("--batch", type=int, default=8, help="forward-pass batch size")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="shard every fused layer across N threads (mlcnn_pipeline(parallel_workers=N))",
    )
    parser.add_argument(
        "--no-sim", action="store_true", help="skip the accelerator-simulator rows"
    )
    parser.add_argument("--jsonl", help="also export the per-row table(s) as JSONL")
    args = parser.parse_args()

    roofline = get_roofline()
    prov = roofline.provenance
    print(
        f"host roofline: peak {roofline.peak_flops / 1e9:.2f} GFLOP/s, "
        f"stream {roofline.stream_bandwidth / 1e9:.2f} GB/s, "
        f"ridge {roofline.ridge_intensity:.2f} FLOP/byte "
        f"({prov.get('cpu_count', '?')} core(s), {prov.get('machine', '?')})"
    )
    for name in args.models:
        print()
        report = attribute_model_run(
            name,
            bits=args.bits,
            workers=args.workers,
            batch=args.batch,
            roofline=roofline,
            simulate=not args.no_sim,
            root=name,
        )
        print(report.render())
        print(
            f"{name}: span coverage {100 * report.span_coverage:.1f}%, "
            f"{report.unexplained_us / 1e3:.3f} ms unexplained of "
            f"{report.total_us / 1e3:.3f} ms"
        )
        if args.jsonl:
            out = args.jsonl
            if len(args.models) > 1:
                stem, dot, ext = out.rpartition(".")
                out = f"{stem}_{name}.{ext}" if dot else f"{out}_{name}"
            rows = report.write_jsonl(out)
            print(f"wrote {rows} rows to {out}")


if __name__ == "__main__":
    main()
