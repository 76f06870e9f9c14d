"""Byte pins of the command-line tool: the exit status and the sha256 of
stdout of every corpus machine's analysis and of every command that evolves
a state, recorded before refactors that had to keep each byte, and the exit
status and stderr of error cases.

``tests/test_cli.py`` parametrizes its frozen-output tests over these
tables.  Run as a script, this file needs only the standard library and
``src/``: it replays every pin in-process from the repository root, prints
each mismatch, and exits 1 if there is any::

    python tests/pins.py
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sha256 of stdout and the exit status of every corpus machine's analysis,
# recorded before the reversibility check moved onto the shared window sweep;
# the outputs must stay byte-identical across refactors.
CORPUS_OUTPUT_SHA256 = {
    ("check", "delayed_hadamard.qtm"): (
        2, "0f6de7abc30846c0bbbba607684c807bc293f3bfee89c4358af054b32c6d32c2"),
    ("check", "hadamard_halt.qtm"): (
        2, "98e988d61639424ddc4ad88594d2d4a2adb8a9179264b175c22885c41546b9cb"),
    ("check", "hadamard_halt_naive.qtm"): (
        2, "945bdb9531a52f2bdfc78c62a64811d8e876bcb8eb8b5ef402b445ed2616bf2a"),
    ("check", "right_shift.qtm"): (
        0, "dd288d2a75bbbd34dd70b67c6d74f95aa2690f99d140714e31719f1bc251b3f0"),
    ("check", "seek_right_lifted.qtm"): (
        2, "166617354aff2bacf4bc7b483f71dc679fe5576ea13f74bda1694f62b7a6af11"),
    ("lift", "collide.tm"): (
        2, "12711571dd8c3752df2748603a93f3d802a68cb1a446fb646857e878a9470873"),
    ("lift", "flip_bits.tm"): (
        0, "db8e1cc88be3a89f72932810ecb9eaf62e5965d21ca44b0c9804a0983061b1d4"),
    ("lift", "parity_mark.tm"): (
        0, "43b746cdb2cd8834ef25e7f17a7cadf3f3edd2913ccfaf205cb3f8c9c86776c7"),
    ("lift", "seek_right.tm"): (
        0, "db24bf503ec9eab0241f922c89df04fad4d8d9d9169ae006460616131d57db01"),
    ("lift", "unary_inc.tm"): (
        0, "bda2d2f74f3dba3649bc88b1496ed0a131dd2005daf19d49ae80711a5552e3fa"),
}


# The same at the default witness cap (None) and at --max-witnesses 3, where
# only the first witnesses are shown; recorded before witnesses computed
# their inner products and images lazily.
TRUNCATED_OUTPUT_SHA256 = {
    ("check", "delayed_hadamard.qtm", None): (
        2, "a21c9506ce451bc55564c720e22e83352c5f5cee1e2ca8e682faa4a7d31782c8"),
    ("check", "delayed_hadamard.qtm", 3): (
        2, "dfa84e909b7f77cc516b9ff61916dd359d7339a8671adf884cfb9a86717e263d"),
    ("check", "hadamard_halt.qtm", None): (
        2, "58c56d4859479f39dcfb7d2e9baf8616ad73d1e37a71a0d9a34e7b3a0d80eda6"),
    ("check", "hadamard_halt.qtm", 3): (
        2, "40a504591b005edf584c3416b05989b5ebff56e3bd71ab94d4dd66ce8dc5782a"),
    ("check", "hadamard_halt_naive.qtm", None): (
        2, "187a63f271deafe9e7856e39d3d043f8e9ae92b622cda3ed40fdec30bf8dc31c"),
    ("check", "hadamard_halt_naive.qtm", 3): (
        2, "838c934876766845ad79cc9f6d50af85eb35456fc5f6d5168ec1553899ebf27b"),
    ("check", "right_shift.qtm", None): (
        0, "5ce8ea6502fb04f09f72c33817b17607a87a53c81a19a4e564701d56029e7d5b"),
    ("check", "right_shift.qtm", 3): (
        0, "0f878e6d148f06480af25454c5e161d5219d1efe75aaf8ac7602e97e66d4b7cd"),
    ("check", "seek_right_lifted.qtm", None): (
        2, "3ed2e943e28c8298aee2842364512747a9e5195188040e2a18e28730e23d8ec4"),
    ("check", "seek_right_lifted.qtm", 3): (
        2, "5733c54d3693c61a51c9eecacc26f5e1caa811ade1c6589e05adae51c4db7b2c"),
    ("lift", "collide.tm", None): (
        2, "09270a605e10be310eb629ac96f760cacbcd2af32ee453255e9df5a4540f803a"),
    ("lift", "collide.tm", 3): (
        2, "8abea617e98351e034ee03d73e0398f40ef98104a7ae6be688be7692b21d3192"),
    ("lift", "flip_bits.tm", None): (
        0, "db8e1cc88be3a89f72932810ecb9eaf62e5965d21ca44b0c9804a0983061b1d4"),
    ("lift", "flip_bits.tm", 3): (
        0, "db8e1cc88be3a89f72932810ecb9eaf62e5965d21ca44b0c9804a0983061b1d4"),
    ("lift", "parity_mark.tm", None): (
        0, "43b746cdb2cd8834ef25e7f17a7cadf3f3edd2913ccfaf205cb3f8c9c86776c7"),
    ("lift", "parity_mark.tm", 3): (
        0, "43b746cdb2cd8834ef25e7f17a7cadf3f3edd2913ccfaf205cb3f8c9c86776c7"),
    ("lift", "seek_right.tm", None): (
        0, "db24bf503ec9eab0241f922c89df04fad4d8d9d9169ae006460616131d57db01"),
    ("lift", "seek_right.tm", 3): (
        0, "db24bf503ec9eab0241f922c89df04fad4d8d9d9169ae006460616131d57db01"),
    ("lift", "unary_inc.tm", None): (
        0, "bda2d2f74f3dba3649bc88b1496ed0a131dd2005daf19d49ae80711a5552e3fa"),
    ("lift", "unary_inc.tm", 3): (
        0, "bda2d2f74f3dba3649bc88b1496ed0a131dd2005daf19d49ae80711a5552e3fa"),
}


# Every command that evolves a state, on every corpus .qtm machine, with a
# superposed input whose branches halt at different steps; sha256 of stdout
# and the exit status, recorded before the commands shared one stepping loop.
STEPPING_INPUT = "1/sqrt(2):01 + 1/sqrt(2):1100"
# --prune 0.5 drops the coin-flip images of the 3/5 branch (modulus 0.42)
# and keeps those of the 4/5 branch on the three Hadamard machines; on
# delayed_hadamard the coin comes at step 2, the second --schedule every
# segment, so pruning must carry over into a resumed evolution
PRUNE_INPUT = "3/5:01 + 4/5:1100"
PRUNED_MACHINES = (
    "delayed_hadamard.qtm", "hadamard_halt.qtm", "hadamard_halt_naive.qtm")
STEPPING_COMMANDS = {
    **{
        f"run-{schedule}": (
            "run", "--input", STEPPING_INPUT, "--steps", "9", "--schedule", schedule)
        for schedule in ("every", "end", "end:3", "at:1,3,5")
    },
    "run-prune": (
        "run", "--input", PRUNE_INPUT, "--steps", "9", "--schedule", "every",
        "--prune", "0.5"),
    "trace-prune": ("trace", "--input", PRUNE_INPUT, "--steps", "12", "--prune", "0.5"),
    "sample": (
        "sample", "--input", STEPPING_INPUT, "--steps", "9", "--seed", "3",
        "--samples", "50"),
    # several measurement records: on seek_right_lifted the branches halt
    # at steps 3 and 5, so a sampled chain index crosses a record; recorded
    # while samples were still counted by outcome value
    "sample-every": (
        "sample", "--input", STEPPING_INPUT, "--steps", "9", "--seed", "3",
        "--samples", "50", "--schedule", "every"),
    "compare": (
        "compare", "--input", STEPPING_INPUT, "--steps", "9",
        "--schedules", "every,end"),
    "trace": ("trace", "--input", STEPPING_INPUT, "--steps", "12"),
    "myers": ("myers", "--input-a", "01", "--input-b", "1100", "--steps", "7"),
    "subspace": ("subspace", "--input", STEPPING_INPUT, "--steps", "8"),
}
STEPPING_OUTPUT_SHA256 = {
    ("run-every", "delayed_hadamard.qtm"): (
        0, "441f3376bd2239bfb5657940456b97234691849ef5a7961644b433fe74c18d24"),
    ("run-every", "hadamard_halt.qtm"): (
        0, "b9a9382f6acfb1f27b3fb7a0eb0ece5d2aac3af19815734be8e0c4ef619a19f2"),
    ("run-every", "hadamard_halt_naive.qtm"): (
        0, "239aca3363bf5e2bf24d34f9901f0768444eb7eb95ac939b7e4842fbec825716"),
    ("run-every", "right_shift.qtm"): (
        0, "e3e06e186fd77ec8ded220a711f4687e405612a408476c406e3b76ebe36cd5ed"),
    ("run-every", "seek_right_lifted.qtm"): (
        0, "4e02e894541d6bb48a7240b7e0913b43810ff97018a1f7f6782f7ae205e2addc"),
    ("run-end", "delayed_hadamard.qtm"): (
        0, "a2f6a85aa05e20c554fbc72fc35e12d83dfb37b53421011d40e631548a637ea8"),
    ("run-end", "hadamard_halt.qtm"): (
        0, "5f85ba29eff22d3087d7ac79e3d6c27b6fe9aa9400fcee2598d8f609a7625c57"),
    ("run-end", "hadamard_halt_naive.qtm"): (
        0, "3bf847c859727a5b50d39e85acfd1910a47f8b3b4b7ba548b0a0e4b0f5528f74"),
    ("run-end", "right_shift.qtm"): (
        0, "4ad85aca74f5b88ff2f7f4aaf223815a53679c9b6fea9dedf63d13595d634fd8"),
    ("run-end", "seek_right_lifted.qtm"): (
        0, "695223b23e020646ab0e6144262a56bf218efffd7f3876fc3e5f18bdd9e5d56a"),
    ("run-end:3", "delayed_hadamard.qtm"): (
        0, "80db65807cf2e383273a45b3a699b1a13babc3c9316ad2a51b66b6547eab33b5"),
    ("run-end:3", "hadamard_halt.qtm"): (
        0, "c37edaad8f7547b7e9d6cb138a99e16e35c791d3537b69b6f12e631387c7cd38"),
    ("run-end:3", "hadamard_halt_naive.qtm"): (
        0, "480724908c0e8940acb5840d19bc3b96c51f274143c766dc5320377b8abc9845"),
    ("run-end:3", "right_shift.qtm"): (
        0, "2f990c009baa89ba5997de475d3cb9bfa1d6f31a5a71bfcb115e66d3c70394f3"),
    ("run-end:3", "seek_right_lifted.qtm"): (
        0, "8bc4d973f744c3c03f488e66fa9bba374e335dc8319881bb215e848daa0c3a0c"),
    ("run-at:1,3,5", "delayed_hadamard.qtm"): (
        0, "dda2d347199c28c93f91c80c987ea2223b9acbe7df92e1e850811610ba206a26"),
    ("run-at:1,3,5", "hadamard_halt.qtm"): (
        0, "d687d509d7168a4c9fe584df610e7e0172c7db345436cfd397bbfb8eb8b952da"),
    ("run-at:1,3,5", "hadamard_halt_naive.qtm"): (
        0, "d3112801bac561c45a01bb5006b1c20578866ebbfaa32d2eb483ff73885974cd"),
    ("run-at:1,3,5", "right_shift.qtm"): (
        0, "4c89719c752fd1c3643064c4819752c04a2a84ed7c2e6710c71c0d1a326e0054"),
    ("run-at:1,3,5", "seek_right_lifted.qtm"): (
        0, "3cc75307d71de22bded2a475aa90fa4c970acc649658ccd21e0d9019e2c1247e"),
    ("run-prune", "delayed_hadamard.qtm"): (
        0, "3278516fe6bb7cd28e426067d0f34461ee2918dc40ffe33a26c1cd3c0480963f"),
    ("run-prune", "hadamard_halt.qtm"): (
        0, "1f8410f6c364037049f0ce317af07a3bbc306c9b47e245c6d63e30b83ce618c4"),
    ("run-prune", "hadamard_halt_naive.qtm"): (
        0, "dc22b9a1bb058e53c767007fc47f7563d17dff10bc042912e89e280bd9e470d8"),
    ("run-prune", "right_shift.qtm"): (
        0, "eaff902df459d58564cb298fa79849eb1682d47d5ce834e38f521a34f9b122d8"),
    ("run-prune", "seek_right_lifted.qtm"): (
        0, "0c70fcd210b658d83a4f8778c9aecb245d7a62f2e4f6dd3e41cd3671c3d7daf7"),
    ("trace-prune", "delayed_hadamard.qtm"): (
        0, "5bb1b311449c60c8a0f04a176a3337f474cbb320e327407b3c8532108030ff55"),
    ("trace-prune", "hadamard_halt.qtm"): (
        0, "47b66f7241ce0ea6669e91d976024aac0227e1a3b6777b6a6a536a0470862c3e"),
    ("trace-prune", "hadamard_halt_naive.qtm"): (
        0, "18e3f65ec16d19b5be257ac1ec430203e754a7fd5a40bceec3cbe291e0ea472c"),
    ("trace-prune", "right_shift.qtm"): (
        0, "1764498c1c9f1c6760b570afdc62a59c3816e4a7ff8880b7463485e588080b47"),
    ("trace-prune", "seek_right_lifted.qtm"): (
        0, "8628c95485166342094f86dc1402309e3739c3fc127e26a09bee9e4ad5253427"),
    ("sample", "delayed_hadamard.qtm"): (
        0, "3aeb4fa27230360b0b6ebd9dae89ce4bfb739848e8d35db6d1626267c28b8c6c"),
    ("sample", "hadamard_halt.qtm"): (
        0, "8a35321867931dcb0312bad540b4e5c46ca148718eaabf1d467b306ab46720d2"),
    ("sample", "hadamard_halt_naive.qtm"): (
        0, "a7b89316d3d643f0df077200f3a3397e97eac07472a4e2564eb7071e6dc230ac"),
    ("sample", "right_shift.qtm"): (
        0, "fe274184b48dd67e3702b7ae9c0bf62574647becbacdc6b00294083367f385bd"),
    ("sample", "seek_right_lifted.qtm"): (
        0, "7b17b60a8d1492c1c0c462babfc57008efe13feb51dd09fbb6b22fff56db53fb"),
    ("sample-every", "delayed_hadamard.qtm"): (
        0, "81f18449cd9d4a4fa13b73defd8470f933df1f96b9abbb965ff24a083ef50a5a"),
    ("sample-every", "hadamard_halt.qtm"): (
        0, "de212e553b97ad1c6942e7d3e8cb572149c8970a9568206f8a43d8eab6466857"),
    ("sample-every", "hadamard_halt_naive.qtm"): (
        0, "c3ef04be564d5787fcaeef37622f6c04cdbc21d0f21676ee70ae416668bde50f"),
    ("sample-every", "right_shift.qtm"): (
        0, "f871cf361955d50191baf2aa6e0edfa5b90a95cbc87e9d1b9a4ee6fb440a0421"),
    ("sample-every", "seek_right_lifted.qtm"): (
        0, "a3e5fbc3622f67bb39ce49fad649b80e63bfa0a49893ac8754c25b94073a42e7"),
    ("compare", "delayed_hadamard.qtm"): (
        0, "02eba52d15ccdb4fec370685db656c6c2e4494d8b42908a1a6ce317631966ef5"),
    ("compare", "hadamard_halt.qtm"): (
        0, "94b2afe1440d945e20d792f4edec66c746cacc8efe6b2c53b34910f8ec349954"),
    ("compare", "hadamard_halt_naive.qtm"): (
        0, "0cf15efe1c5e99e5f77ba91b4f3f9fbd180b33a27ccea991ed872676045a0899"),
    ("compare", "right_shift.qtm"): (
        0, "bad7b26f02b470ce22486b8f7ac7c201200b7352346217bdc0ea93c630368573"),
    ("compare", "seek_right_lifted.qtm"): (
        0, "d8ab307e45e16aa5fc955eb6d24333db4f2bed87f0a40cc907a9cd6fb7702299"),
    ("trace", "delayed_hadamard.qtm"): (
        0, "53718eef4b5fe39ea45bcb808a8b10d4067358cca03ae09e7e05784ab1b93ca2"),
    ("trace", "hadamard_halt.qtm"): (
        0, "0bf169e46043d32961557735a8515d52315c559b12e92094a2a3e95b81e628c7"),
    ("trace", "hadamard_halt_naive.qtm"): (
        0, "5e8f7496ae4797ea9fe740ab560ca761a19175f8a5bfe7ed4ace0ac92d97bef6"),
    ("trace", "right_shift.qtm"): (
        0, "0fb9bc04795a51c49cb10482688b13b5eccc23046cbaa3c9bff3c0c62c01c449"),
    ("trace", "seek_right_lifted.qtm"): (
        0, "6c012b567ced9d11112c911007417bb3128cdb596ff606a817997f4fe6b3be74"),
    ("myers", "delayed_hadamard.qtm"): (
        0, "a3dee5d41ef621ff097bf6b8a42a157e32936eeb2287ea05e87cb0c6dae19ac2"),
    ("myers", "hadamard_halt.qtm"): (
        0, "c0d51b9fd41c1fc5e4961c9607b954f1f2738c7819f3d811f035690b7ad92bd0"),
    ("myers", "hadamard_halt_naive.qtm"): (
        0, "e62e99a79479f4ddcd3227670682c825e65ec98b609b92150a74c26385843ee8"),
    ("myers", "right_shift.qtm"): (
        0, "7daee8de467dd34759a7522986d55b5dbb70bc4fd6daf8b6c84bae686d0b278f"),
    ("myers", "seek_right_lifted.qtm"): (
        0, "016206b5289e950bf2facf9132132b35158f9dc48de2f45f4a01313d050962c1"),
    ("subspace", "delayed_hadamard.qtm"): (
        2, "e7fe47207a45749c365639f915b4193f5bbcd39aa6724edd15c6e9114e935912"),
    ("subspace", "hadamard_halt.qtm"): (
        2, "93eb6a212888fde654c8f3ee5de4aca533b0c5b73be18629d65ca591b1e7862d"),
    ("subspace", "hadamard_halt_naive.qtm"): (
        2, "59d651bb499321ac03138483c43e3a7f63cc5f29da35aa3db8c459559f0f671d"),
    ("subspace", "right_shift.qtm"): (
        0, "096e75fea5579957f3dd9fa17b95724cc7254662b58eca160440645d18b34137"),
    ("subspace", "seek_right_lifted.qtm"): (
        2, "5c22a3bb828e208e72eb1ec9467b42d373821f55fcb997a4784f49adba4178ac"),
}
# subspace over 32 branches that halt at steps 2..33 and then drift: 752
# halted configurations, recorded while the analysis still built their
# Gram matrix
LONG_SUBSPACE_ARGV = (
    "subspace", "machines/seek_right_lifted.qtm",
    "--input", " + ".join(f"1/sqrt(32):0{'1' * k}" for k in range(32)),
    "--steps", "40",
)
LONG_SUBSPACE_SHA256 = (
    2, "e3ac47e72d1c1f6f2c93531dee2fd1cfef7e153f6fe08608edaa9fb76eaa8c90")
# exit status and stderr of an --input whose bad amplitude is in a later
# term: the offset counts from the start of the --input text, where the
# "x" is
ERROR_PINS = {
    ("run", "machines/seek_right_lifted.qtm",
     "--input", "1/sqrt(2):0 + 1/sqrt(x):1", "--steps", "3"): (
        1, "qtmlab: error: expected an integer (offset 21)\n"),
}


def cases():
    """``(label, argv, (exit status, sha256))`` for every pin, one per case
    that ``tests/test_cli.py`` parametrizes, with paths relative to ``ROOT``."""
    for command, name in sorted(CORPUS_OUTPUT_SHA256):
        argv = (command, f"machines/{name}", "--max-witnesses", "100000")
        yield f"{command} {name}", argv, CORPUS_OUTPUT_SHA256[command, name]
    for command, name, cap in sorted(TRUNCATED_OUTPUT_SHA256, key=str):
        flags = () if cap is None else ("--max-witnesses", str(cap))
        yield (
            f"{command} {name} cap={cap}", (command, f"machines/{name}", *flags),
            TRUNCATED_OUTPUT_SHA256[command, name, cap],
        )
    for command, name in sorted(STEPPING_OUTPUT_SHA256):
        argv = STEPPING_COMMANDS[command]
        yield (
            f"{command} {name}", (argv[0], f"machines/{name}", *argv[1:]),
            STEPPING_OUTPUT_SHA256[command, name],
        )
    yield "long subspace", LONG_SUBSPACE_ARGV, LONG_SUBSPACE_SHA256


def run(argv) -> tuple:
    """(exit status, stdout, stderr) of ``qtmlab`` on ``argv``, in-process
    from the repository root."""
    from qtmlab import cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def replay(argv) -> tuple:
    """(exit status, sha256 of stdout) of ``qtmlab`` on ``argv``, as ``run``
    gives them; stderr is dropped."""
    code, out, _ = run(argv)
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    total = bad = 0
    for label, argv, pinned in cases():
        total += 1
        got = replay(argv)
        if got != pinned:
            bad += 1
            print(f"MISMATCH {label}: got {got}, pinned {pinned}")
    for argv, pinned in ERROR_PINS.items():
        total += 1
        code, _, err = run(argv)
        if (code, err) != pinned:
            bad += 1
            print(f"MISMATCH {' '.join(argv)}: got {(code, err)}, pinned {pinned}")
    print(f"{total - bad} of {total} pins hold")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
