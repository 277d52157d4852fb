"""repro: a reproduction of BombDroid (CGO 2018).

"Resilient Decentralized Android Application Repackaging Detection
Using Logic Bombs" -- Zeng, Luo, Qian, Du, Li.

Quickstart::

    from repro import BombDroid, BombDroidConfig, build_named_app, repackage
    from repro.crypto import RSAKeyPair

    bundle = build_named_app("AndroFish")
    protected, report = BombDroid(BombDroidConfig(seed=1)).protect(
        bundle.apk, bundle.developer_key
    )
    pirated = repackage(protected, RSAKeyPair.generate(seed=666))
    # install `pirated` into a Runtime on a sampled user device and
    # watch runtime.detections fill up.

Package map (see DESIGN.md for the full inventory):

``repro.crypto``    SHA-1 / AES-128 / RSA / salted KDF
``repro.dex``       the register-based bytecode substrate
``repro.vm``        interpreter, devices, events, Android API surface
``repro.apk``       packaging, signing, manifest digests, steganography
``repro.analysis``  CFG/loops/QCs/entropy/slicing/profiling
``repro.core``      BombDroid itself (+ SSN and naive baselines)
``repro.fuzzing``   Monkey / PUMA / AndroidHooker / Dynodroid models
``repro.repack``    the adversary's repackaging pipeline
``repro.attacks``   the full adversary-analysis suite
``repro.corpus``    synthetic app generator + the eight named apps
``repro.userside``  user-population simulation, app market
``repro.reporting`` signed detection reports: wire format, client,
                    sharded ingestion server, fleet driver, metrics
"""

from repro.core import BombDroid, BombDroidConfig
from repro.corpus import build_app, build_named_app, generate_corpus
from repro.repack import repackage, resign_only

__version__ = "1.0.0"

__all__ = [
    "BombDroid",
    "BombDroidConfig",
    "build_app",
    "build_named_app",
    "generate_corpus",
    "repackage",
    "resign_only",
    "__version__",
]
