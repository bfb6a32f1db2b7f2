#!/usr/bin/env python3
"""Teacher-student regression trained purely through boundary clamping.

A fixed random teacher y = A relu(B x) produces the data. Training
clamps the input layer to x and the output layer to y, alternates a
settling phase (alpha=0) with a learning phase (alpha>0) per sample, and
measures MSE with inference-only passes. Run time is about half a
minute; pass --quick for a shorter run.
"""

import sys

from pcsub import (
    Network,
    NetworkConfig,
    TeacherSpec,
    TrainProtocol,
    generate_dataset,
    train_network,
    write_curve_csv,
)

quick = "--quick" in sys.argv
epochs = 5 if quick else 25

teacher = TeacherSpec("relu_teacher", dims=(2, 4, 3), seed=101, weight_scale=1.0)
ds = generate_dataset(teacher, n_samples=64)
print(f"dataset: {len(ds)} samples, dims {ds.dims}")

cfg = NetworkConfig(
    layer_sizes=[2, 4, 3],
    activations=["identity", "relu", "identity"],
    alpha=0.01,
    gamma=0.1,
    seed=1,
    init_scale=0.5,
)
proto = TrainProtocol(
    infer_ticks=20, learn_ticks=5, epochs=epochs, eval_ticks=100
)
curve = train_network(Network(cfg), ds, proto)

print("\nepoch  mse")
for i, v in enumerate(curve.mse):
    print(f"{i:5d}  {v:.6f}")
print(f"\nreduction vs epoch 0: {1 - curve.mse[-1] / curve.mse[0]:.1%}")

write_curve_csv(curve, "runs/demo_teacher_student.csv")
print("curve written to runs/demo_teacher_student.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(5, 3.2))
    plt.semilogy(range(len(curve.mse)), curve.mse, "o-")
    plt.xlabel("epoch")
    plt.ylabel("MSE")
    plt.title("teacher-student regression (2-4-3, relu hidden)")
    plt.tight_layout()
    plt.savefig("runs/demo_teacher_student.png", dpi=150)
    print("plot written to runs/demo_teacher_student.png")
except ImportError:
    print("matplotlib not available; skipping the plot")
