"""Section IV workflow: CIFAR-100 codesign with a rising perf/area
threshold, compared against ResNet/GoogLeNet on their best accelerators.

The search is the ``fig7`` study preset, sized by ``fig7_spec`` and run
through ``run_study`` like every other study; ``run_fig7`` packages it.
Its cost is read off the search's archive, so a re-run over a warm eval
cache reports the same GPU-hours.

Run:  python examples/cifar100_codesign.py        (a few minutes)
      REPRO_SCALE=smoke python examples/cifar100_codesign.py   (fast)
"""

from repro.core.study import run_study
from repro.experiments import Scale, fig7_spec, run_fig7, run_table2, run_table3


def main() -> None:
    scale = Scale.from_env(default="default")
    print(f"Running the threshold-schedule search at scale={scale.name} ...")
    fig7 = run_fig7(run_study(fig7_spec(scale, seed=1), scale=scale))

    print(fig7.to_markdown())
    print()
    print(run_table2(fig7).to_markdown())
    print()
    print("Discovered accelerator parameters (Table III):")
    print(run_table3(fig7).to_markdown())

    resnet = fig7.baselines["resnet"]
    if fig7.cod1 is not None:
        m = fig7.cod1.metrics
        print(
            f"\nCod-1 vs ResNet: accuracy {m.accuracy - resnet.accuracy:+.2f}%, "
            f"perf/area {100 * (m.perf_per_area / resnet.perf_per_area - 1):+.0f}% "
            f"(paper: +1.3%, +41%)"
        )
    print(f"Search cost: {fig7.gpu_hours:.0f} simulated GPU-hours "
          f"({fig7.unique_cells_trained} cells trained) — paper: ~1000 GPU-hours.")


if __name__ == "__main__":
    main()
