"""Sweep quantization schemes and bit widths on a sparsified model and print
the accuracy / compression trade-off table.

Expects the artifacts of run_blobs_pipeline.py (teacher, student, mask) and
the run.json it wrote beside them, whose data section gives the dataset:

    python scripts/sweep_quantization.py --workdir out/blobs_pipeline
"""

import argparse
import sys
from pathlib import Path

from devolve import cli, nn, packing, quantize, sparsity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="out/blobs_pipeline")
    args = parser.parse_args()
    workdir = Path(args.workdir)
    run = workdir / "run.json"
    if not run.exists():
        print(f"{run} not found: run scripts/run_blobs_pipeline.py --workdir "
              f"{workdir} first", file=sys.stderr)
        return 1

    student = nn.load_network(str(workdir / "student.devn"))
    teacher = nn.load_network(str(workdir / "teacher.devn"))
    mask = sparsity.load_mask(str(workdir / "mask.devm"))
    ds = cli._build_dataset(cli.load_config(str(run)), student.input_shape)
    acc_teacher = nn.accuracy(teacher, ds)
    acc_student = nn.accuracy(student, ds)
    print(f"teacher accuracy  {acc_teacher:.4f}")
    print(f"student accuracy  {acc_student:.4f} "
          f"(sparsity {sparsity.sparsity(mask):.3f})")
    print(f"\n{'scheme':<16} {'bits':>4} {'rounding':>10} {'accuracy':>9} "
          f"{'payload x':>10} {'total x':>8}")
    for scheme in ("uniform_scale", "uniform_affine", "optimal_density"):
        for bits in (8, 4, 2):
            for rounding in ("nearest", "stochastic"):
                model, rep = quantize.quantize_network(
                    student, mask, scheme=scheme, bits=bits,
                    rounding=rounding, seed=5, dataset=ds)
                packed = packing.pack_model(model)
                cr = packing.compression_report(student, packed)
                print(f"{scheme:<16} {bits:>4} {rounding:>10} "
                      f"{rep['accuracy_after']:>9.4f} "
                      f"{cr.payload_only_ratio:>10.1f} {cr.total_ratio:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
