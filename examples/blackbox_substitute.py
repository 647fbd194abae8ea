"""Black-box scenario: model extraction plus transfer attack.

The attacker can only query the victim for labels.  They train a substitute
CNN on query responses (Papernot-style), craft adversarial examples on the
substitute, and replay them on the victim.  This example compares how well that
works against the exact classifier and against the Defensive Approximation
classifier (Table 4 of the paper).

Run with:  python examples/blackbox_substitute.py
"""

from repro.attacks import PGD
from repro.attacks.base import Classifier
from repro.core import (
    DefensiveApproximation,
    select_correctly_classified,
    train_substitute,
    transfer_counts,
)
from repro.experiments import lenet_digits
from repro.nn import build_lenet5


def main() -> None:
    print("Loading (or training) the exact LeNet digit classifier...")
    model, split = lenet_digits()
    defense = DefensiveApproximation(model)
    query_set = split.train.images[:800]

    def substitute_factory():
        return build_lenet5(
            split.train.input_shape, conv_channels=(8, 16), fc_sizes=(64, 48), seed=21
        )

    for name, victim in (
        ("exact classifier", defense.exact_classifier()),
        ("Defensive Approximation classifier", defense.defended_classifier()),
    ):
        print(f"\nReverse engineering the {name} from query responses...")
        substitute = train_substitute(
            victim.predict, query_set, build_model=substitute_factory, epochs=15, seed=21
        )
        # craft on the substitute, replay on the victim: the transfer
        # measurement with the substitute as the source
        source = Classifier(substitute)
        victims = select_correctly_classified(source, split.test.images, split.test.labels, 15)
        counts = transfer_counts(
            source,
            {"victim": victim},
            PGD(epsilon=0.1, steps=15),
            split.test.images[victims],
            split.test.labels[victims],
        )
        substitute_rate = counts["n_fooled"] / max(counts["n"], 1)
        victim_rate = counts["targets"]["victim"] / max(counts["n_fooled"], 1)
        print(f"  PGD success on the substitute: {100 * substitute_rate:.0f}%")
        print(f"  PGD success on the victim:     {100 * victim_rate:.0f}%")
        print(f"  victim robustness:             {100 * (1 - victim_rate):.0f}%")


if __name__ == "__main__":
    main()
