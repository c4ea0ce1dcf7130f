"""Byte pins of the command line: the sha256 of stdout and the exit code of
every subcommand in each ``--format``, of every builtin scenario in each
``--mode`` and format, and of a file scenario with weak stages.  A change to
a number, a verdict or a rendering moves a pin."""

import hashlib
import json

import pytest

from twostate.cli import main
from twostate.scenarios import builtin_names

FORMATS = ("table", "json", "csv")
ORACLE = ["--trials", "20000", "--seed", "3"]

# two weak probes (a real and an imaginary weak value), two counterfactuals
# and a product audit: every line of the scenario text report a run reaches
WEAK_DOC = {
    "name": "weak-probes",
    "dim": 2,
    "pre": [1, 0],
    "timeline": [
        {"weak_measure": {"operator": {"pauli": "z"}, "strength": 0.05, "label": "wz"}},
        {"weak_measure": {"operator": {"pauli": "y"}, "strength": 0.05, "label": "wy"}},
    ],
    "post": {"observable": {"pauli": "x"}, "select": 1},
    "counterfactuals": [
        {"observable": {"pauli": "z"}, "label": "sz"},
        {"observable": {"pauli": "y"}, "label": "sy"},
    ],
    "products": [{"label": "zy", "left": {"pauli": "z"}, "right": {"pauli": "y"}}],
    "trials": 20000,
    "seed": 3,
}

COMMANDS = {
    "born": ["born", "--state", "up-z", "--obs", "spin:1.0:0.5"],
    "abl": ["abl", "--pre", "up-x", "--post", "spin:1.0", "--obs", "pauli-z"],
    "simulate": ["simulate", "--pre", "up-x", "--measure", "pauli-z", "--measure", "pauli-x",
                 "--post", "pauli-y", *ORACLE],
    "paper-checks": ["paper-checks", *ORACLE],
    "pointer-sweep": ["pointer-sweep", "--pre", "up-z", "--post", "spin:1.0", "--obs", "pauli-x"],
}

CASES = {
    **{f"{name}-{fmt}": [*argv, "--format", fmt] for name, argv in COMMANDS.items() for fmt in FORMATS},
    "weak-table": ["weak", "--pre", "up-z", "--post", "up-x", "--obs", "pauli-y"],
    "weak-table-spin": ["weak", "--pre", "spin:0.3", "--post", "spin:2.0:1.0", "--obs", "spin:1.0:0.5"],
    **{
        f"{name}-{mode}-{fmt}": ["scenario", "--builtin", name, "--mode", mode,
                                 *(ORACLE if mode != "analytic" else []), "--format", fmt]
        for name in builtin_names() for mode in ("analytic", "oracle", "both") for fmt in FORMATS
    },
    **{f"weak-file-{mode}-{fmt}": ["scenario", "--file", None, "--mode", mode, "--format", fmt]
       for mode in ("analytic", "both") for fmt in FORMATS},
}

# (exit code, sha256 of stdout) of each case
PINS = {
    "abl-csv": (0, "d4eb3d80d6ed7e349f7b866267644b628a1ac095040b92d6f583a2f8bfbdf918"),
    "abl-json": (0, "5bb3dcb5310ca8f71d7f6779e467bbee51d0dbdf18f86ac96c21b605784f9771"),
    "abl-table": (0, "45b596d3f159f70a938937c4a2825002baf09fd65a8a893ae0db13d45cf3508c"),
    "born-csv": (0, "dc118c87c8becdbdce562bde87bb8363e06c2cab7be2861c88aea3711bb5cbcc"),
    "born-json": (0, "6ac4b106398479beaf65be45813fef60d90be029ed57dc7063c515b9cffdb671"),
    "born-table": (0, "3e60edc590965faf45ec34179bd328c36b404f7477fb4ba73ebb125926218416"),
    "erasure-analytic-csv": (0, "ca2130960e2418d0623e87c2a59cd0c23f24605b7d0135940a218c9f17cd27db"),
    "erasure-analytic-json": (0, "61d1c850880bbd47d0e54e87b0a20970ee1356dff3e02e67c198f194904120b7"),
    "erasure-analytic-table": (0, "c1e1eb47daabc78ed2b7e7c93494a88357780ab7ee88e644eb7cbe6d222bf7bb"),
    "erasure-both-csv": (0, "e8a5aa5814c3ccbbbd2300a4a0cbe82b551b75961d491f7a953d965542b700ee"),
    "erasure-both-json": (0, "bb15077dd0ba03c07a058829c87b0febacf8318de07ea0b44c25d0ee68ab3cc7"),
    "erasure-both-table": (0, "e87ac30fd624648d33446637b563190ea107ea634df08ed50c5982af26e674df"),
    "erasure-oracle-csv": (0, "dd289e56beb5c80ffc1eff93ed60c653df61d916b087abcb17b2f2c06e41e499"),
    "erasure-oracle-json": (0, "46a5926f7e300b563c412255f1858c77141683305c84ad7d473e59ad2724239b"),
    "erasure-oracle-table": (0, "05f4316cd3cec9caf5db108cbdad68dc2eb8e91f66cefa48479d974ce5f896ba"),
    "mach-zehnder-analytic-csv": (0, "7e5264af93564375e7ed6f0af2a1bc1c7b044068d2ce65b498a89ee8692d4c0a"),
    "mach-zehnder-analytic-json": (0, "93d8a82a19be2551c6f70ef2a1a34f042ea206c5f828de1ba91b07d05b798ce3"),
    "mach-zehnder-analytic-table": (0, "f6c645614edfb3678e2ab68ee7352906a620d94706947b15ab0f6b42520ad2b1"),
    "mach-zehnder-both-csv": (0, "953daa72ee2ffb7d5a23113a41218fb6a095f1d1a79464d35062411021ca4bef"),
    "mach-zehnder-both-json": (0, "7405d59e28a003ae9dc87bbb6847613e09b7192a8826d5c2b8bdd932d195de09"),
    "mach-zehnder-both-table": (0, "e9e06f240c39f8c5c6317f034698e1b34847264cd6e5ab53bacca427c8e9df61"),
    "mach-zehnder-oracle-csv": (0, "3fc728260b97d2515a993e4e871323b167cf2d194b3b501ec7ef60ec53aabad3"),
    "mach-zehnder-oracle-json": (0, "1f1a0ac25c1bd7f2a30ddc9870add8dee51849ee170fac88ec97279fc7b0c97d"),
    "mach-zehnder-oracle-table": (0, "1d263d9eeac6ffb9e5e10eef91cc80e9c70c38c5a6264d3046b4e2269e3aa6a6"),
    "paper-checks-csv": (0, "af8bfb4dc7a64ee751337287da8f25e56cf142929bb714cc1ce7c773ad2bef82"),
    "paper-checks-json": (0, "aae555f37dcf5d830a93c7bacdd931a17e23b61773a437ff840e6efa70254902"),
    "paper-checks-table": (0, "8e899475fe9d5a7b9e7593f7ee723c1b9a57948f9dc21d22bbda096d8501d99f"),
    "pointer-sweep-csv": (0, "e9c6dc03eb4779b31a6af10c9c73c80238231a5ed1e8eba492b1678382c0c36f"),
    "pointer-sweep-json": (0, "e8993460ef992fff42bd0520d0c20aedd7d073829d599f373f2d05f1fff2f315"),
    "pointer-sweep-table": (0, "f7754014bdf8e9d7a181114bfcb24e9e10a135668000ae6aeeed68556fa9112a"),
    "reality-pair-analytic-csv": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "reality-pair-analytic-json": (0, "e94ffc82113c55d97d0f1fce686fd01dd64b166807689b8af386482c4c5ba6d6"),
    "reality-pair-analytic-table": (0, "5faa898032f7114b1efaffc3fdd9b2687f153e3426cd1bdd74a3bfc7a3890fdf"),
    "reality-pair-both-csv": (0, "5da2c11d76454b1f8f0e4a006bdf185b2f28adb0f72d73c58eb69d398d470ed4"),
    "reality-pair-both-json": (0, "141a9dfda07264fcd8a599d756847300f49421a7335b64ad35ea91fa975461e9"),
    "reality-pair-both-table": (0, "81f225f438c25c276bb9bde914f2daa522f4d0eb9a74d995583410967746ff76"),
    "reality-pair-oracle-csv": (0, "df619fec5543aaf9adc60ac5d67df5cbd6e511fdbf54bd8e213488b28d46f93b"),
    "reality-pair-oracle-json": (0, "db8e08cb3546f6a0ea71cc997eead4834c528c40a5c78897f02c41f93548d674"),
    "reality-pair-oracle-table": (0, "1922ee119706fde433685db47a1a1b11f9609e80208339529793e7873802d679"),
    "sharp-shanks-analytic-csv": (0, "f860164064d121e1acff55c6524f2fd43b6d6b6003cb488355013caf96df594c"),
    "sharp-shanks-analytic-json": (0, "7ab50ebcd186c7641ed619c37825603ab64625e347b51c98c865499e8a3e90c0"),
    "sharp-shanks-analytic-table": (0, "8cbe36fa318d11de2ebec38a9adef1d98a84f8a9125322c860b3dab0f62506ca"),
    "sharp-shanks-both-csv": (0, "caf616110dd13a02563954b74ed5bfeddf01c60b4ae0778f9fca6fa7d9942e14"),
    "sharp-shanks-both-json": (0, "9e28e7ccdb303f1bf99c50158aa890b75ad82183d9344ca0d399e1ef7202b577"),
    "sharp-shanks-both-table": (0, "1ccf97dccfdbb21f8b4d2bb9173e5d0485860bf70597ea610593b33d0b61ccc3"),
    "sharp-shanks-oracle-csv": (0, "052fd2f80f08300ce3c07dd0a34432ba4e1948e685e7b20af005b81ae9417e1a"),
    "sharp-shanks-oracle-json": (0, "f4cbf337e9e8c3b8992d4d0b5c7edd1727f6298cc1d4cbe1dff7a1a5a74f6fbb"),
    "sharp-shanks-oracle-table": (0, "938bbf6b80ac0afed42849b16eef4c18dd50e0c269f937e287ceeb441ebbcfc1"),
    "simulate-csv": (0, "09e182c387089844f7c1f399faae2cc5138eed840c3557e3eb42e6d1bd43801d"),
    "simulate-json": (0, "0a63ade9628ba65c57760534a7b14844f387af0baf1f7037b88599fc2c2d384d"),
    "simulate-table": (0, "9fde8553dfa06c67b163e961b889f50748fc4ef15cc209c494d752fb4166010d"),
    "spin-zz-xi-analytic-csv": (0, "b7c572fe7afd2b571d49bc151bdcb8581790daed30a083b9a8e115ba628ab118"),
    "spin-zz-xi-analytic-json": (0, "4ae716ab64321b0d749be436ff70750d80142ad6cf3024ce8c057fe2517940d5"),
    "spin-zz-xi-analytic-table": (0, "ee8efbee38bdf800b562df365ced4d40bc0c15cb4c656599863bdfb9345d3326"),
    "spin-zz-xi-both-csv": (0, "efcd1475554e5df1232295ebf87f29270dbd12b6f3fef33d8222f66b3e9cebf0"),
    "spin-zz-xi-both-json": (0, "bddde276a2ac05b734c9ea14b4c53618b1e30d00e72754ba446760603a337c54"),
    "spin-zz-xi-both-table": (0, "d935f85c4e39ec463b5a8b6fbdccb32929b1fb176f7c82d7a780e925f74cb112"),
    "spin-zz-xi-oracle-csv": (0, "13d5fffdf7c1fc560b953e841d1727f83cd4fdfa4bb27271f7a73b648e6023f5"),
    "spin-zz-xi-oracle-json": (0, "69495c13061d4ef7f832ada58a1633c2faf5aa7afe2c26f42f42c6ccbaa6f0c2"),
    "spin-zz-xi-oracle-table": (0, "7cd33ff9d559d2f7ac36e4c0282bc63414bb575f7774722d214b5515a087c95a"),
    "tandem-mz-analytic-csv": (0, "51195461b027682a4ec0b07be1c0ee104bfc04a8333d7b3755529343f78649db"),
    "tandem-mz-analytic-json": (0, "795eb0c84e995dbce61c4258708fc45bddb02823c04a0cbb880ae0f15d0b37b5"),
    "tandem-mz-analytic-table": (0, "f4675f961e9f882adf2a674be1bada53a6ee07ac0608dbe3917ff5b9b85b14ac"),
    "tandem-mz-both-csv": (0, "5b3cbece4ac00056b72edbc66bffe028bd40956480c9bc06068b56689977f4d4"),
    "tandem-mz-both-json": (0, "4fd090169a3b7751a7a0fb8288eed4db9348e454f530b630ba802ac63733a25a"),
    "tandem-mz-both-table": (0, "3a428990feb6a95f2c12e931fb702243b90ca8ec2af3a42c8d34bff0ea13e7d7"),
    "tandem-mz-oracle-csv": (0, "2ef26e7bc897cebc991462e32909457b14c144644bc69f48db035e189ace81b8"),
    "tandem-mz-oracle-json": (0, "5f726e5c41b1b481ea84bd569b43ab0ac25784786b8036feb84fddc3ef390b05"),
    "tandem-mz-oracle-table": (0, "104ac545c35046234704c7ee52fede9e7f70991a31f6d5909924a47137aed85a"),
    "weak-file-analytic-csv": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "weak-file-analytic-json": (0, "9efdbe787010667ddecc598560c79a28c95f0ebf219293faa4c4f150fe865484"),
    "weak-file-analytic-table": (0, "13cc448539c91dc20522139371d1087cdd7c792adca12ced25c157c62da14efe"),
    "weak-file-both-csv": (0, "c141bc4162f8bdee375ec65146032a7a91ddec92caab535bad6a745c5f1e316a"),
    "weak-file-both-json": (0, "c7bcaa4fd0e26d2105f72a731539f53dea89daeef21e7d2e68b8a71ba0b3e375"),
    "weak-file-both-table": (0, "884ea59725355710fc3eef1c13d15e7fc7c9bc8705ff296b0f9e860dccc5fb0c"),
    "weak-table": (0, "068a04a70b3a816b173c9fa8041a64b1bfd5eacda3d028c1648d91d8bd3fde53"),
    "weak-table-spin": (0, "c5b6dd01939d1bd7f99534791d854e9a1c62edb3e9747dfb81ee95ec21cf3659"),
}


@pytest.mark.pin
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_bytes_are_pinned(capsys, tmp_path, case):
    path = tmp_path / "weak.json"
    path.write_text(json.dumps(WEAK_DOC))
    argv = [str(path) if a is None else a for a in CASES[case]]
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINS[case]


@pytest.mark.pin
def test_pointer_sweep_on_a_fine_grid_is_pinned(capsys):
    # 65,536 points, strong and weak couplings, a complex weak value: every shift the grid makes
    code = main(["pointer-sweep", "--pre", "spin:1.1:0.2", "--post", "spin:2.0:-0.7", "--obs", "pauli-z",
                 "--couplings", "0.0125,0.05,1.0,10.0", "--n", "65536", "--span", "256", "--format", "csv"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (0, "d51c4c742e8d3a4a98c0d6c29fbf8d5cd06979434be1f4f375d11435e24673e2")
