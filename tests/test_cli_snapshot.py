"""Byte-level snapshot of the command line front end.

Each key is one command line; its pin is the exit code and the sha256 of
everything written to stdout, so any change to the rendered bytes of any
subcommand, flag or format shows up here.  A change that alters those bytes
on purpose re-records the pins and says why.  Command lines run in a fresh
directory that holds `orient.json`, which flips the sign of one n = 2 fixed
point, with DT4_MAX_N unset.
"""

import hashlib
import importlib.util
import json
import os

import pytest

from dt4calc.cli import main

ORIENTATION = {"0,0,0,0;1,0,0,0": -1}

PINS = {
    "liqin --format text":
        (0, "4968e01326748e8c70ba4837863e9e2b91c894de55c643f131eaff9152ddbdfc"),
    "liqin --format json":
        (0, "7d194021282fc29a7d76052d2847c61cb0ddb978e5bf2fbb5c56287f5124eff9"),
    "liqin --format csv":
        (0, "ac088d7241876eafc4654a808e4cbeadf04c15dc7829bb5cc77bfc0c458c0b02"),
    "chi --format text":
        (0, "b52a6dcecca6b5e7b88d77c5bab4a459eb3d80643f53bf11485886737e4d24a9"),
    "chi --format json":
        (0, "f11837b1807155dcad14bd6354572422c775b4ecc6bb8e4ba064ce421a10d4ed"),
    "chi --format csv":
        (0, "9b042192d4da9e0861ba0d83981db4663d706d65fe707086267be1ab94ce0a80"),
    "chi --left 1,2 --right 0,0 --format text":
        (0, "d8e07b45473ef5e5803e0a79a0be859e0c08490d63b838546e66b586070653af"),
    "chi --left 1,2 --right 0,0 --format json":
        (0, "a67837a466034b3e7664709d8cbfa305a8157b04311c896baaddd90b54a0a51a"),
    "chi --left 1,2 --right 0,0 --format csv":
        (0, "a7a2bd7a638d001ee1f104593b3e79d295366f6d97759191dae7f4593e60920e"),
    "chi --left 1,-1 --format text":
        (0, "91ad69cee48bedbcc6c703990de947544f91a616ca1f0d2621d737f795e3ca04"),
    "chi --left 1,-1 --format json":
        (0, "3f28f0801a5ab670f9ffe1bb5906c43159d90ba7a37e6ab6b28dedf723de9e1a"),
    "chi --left 1,-1 --format csv":
        (0, "dee92854b7278bf4e5425b9d95a20ed18fb24f0ac60a2026d22d171dfde51e08"),
    "chi --right 2,3 --format text":
        (0, "8c72b2a260c7c8e8bfc6351040f0752688f91199933209e7013887c195c3c7f9"),
    "chi --right 2,3 --format json":
        (0, "1bc1ad49a5c80cf1cdea0ff18014a8f9d2cc3e923147f8ea65f1d2a859334ac6"),
    "chi --right 2,3 --format csv":
        (0, "e7234b5816afcb59787bad13545042a18ac4fb200dce7cb49cc22824a8823569"),
    "vdim --format text":
        (0, "66b73cd1f06e67923546d45812171748eba26acb0d0ec404f7a95d46a644dec9"),
    "vdim --format json":
        (0, "fbafb547a86103c1a20df82a068c4c9f091f4fba92f5f095ec8753d29d6d01f5"),
    "vdim --format csv":
        (0, "9d10618921245701f255f042cee1c0d112dfec869170aa5f98870e530246e3f4"),
    "vdim --n-max 3 --format text":
        (0, "520b6c9509919882c0e10970528b473d42f9ab95c2feeffe9d3d88f82365d5f6"),
    "vdim --n-max 3 --format json":
        (0, "dd85da307ca64d99023cf44956c2405c36b3281338bcf5669d98b449f6e8ec99"),
    "vdim --n-max 3 --format csv":
        (0, "f25e5a134d7d8785bafadea2185bf5ce1fe2502d52922dc1c85a2c7f6bd028c6"),
    "partitions --format text":
        (0, "173497e16dbf6475cbf7307336053c7a23feb02dec9c297da00484ce9ef2f084"),
    "partitions --format json":
        (0, "4ab47f56c5d8b6383d4d8d54ba973ff9e14881fe5fb10a9d2eb864f9e17972f6"),
    "partitions --format csv":
        (0, "b60c9e1b22ff5e1a6a889819925b9aa4b64bb0a46aa183b4ce9d92df09d4da30"),
    "partitions --d 3 --list --format text":
        (0, "f7f25a11334c270f609170522f8cada915f84f60b5654ee10c5b7485b9282cb9"),
    "partitions --d 3 --list --format json":
        (0, "3a35a94e5b4c09c71c23c18ef8f46661e6d1e190ed3c008c87b5bd3e13cde244"),
    "partitions --d 3 --list --format csv":
        (0, "fe1a62c7f970d0b9c6d4a927df1aa3d8061b8c7d23f29f8c3af451c1da55cf35"),
    "partitions --d 2 --n-max 5 --list --format text":
        (0, "adc45d56c3f7f2026e02a2b1944da4c212e2105bd9bf492b2dfe4be6bd32a778"),
    "partitions --d 2 --n-max 5 --list --format json":
        (0, "6570330f577cd0103714407b778b23ac8a806018d24e06c31d4a769a24c6d181"),
    "partitions --d 2 --n-max 5 --list --format csv":
        (0, "a563e00c7cac4fdcd956653abb996eecdf7e6603b2a8eef39de6a1df0e23bcd9"),
    "vertex --format text":
        (0, "d6f12f2c3d7c0abcfae203e46628bee70d5f2f2b440f9ea11356c60f714e9cc7"),
    "vertex --format json":
        (0, "6e61807e959e47976d0fe0500d5cd49c4c20ad76eb89d9ef753b1b42379e361a"),
    "vertex --format csv":
        (0, "0942e7ec187236aa07eccd3b1799d9b0c7b08ef61737eeabceb7fecb52f22d09"),
    "vertex --n-max 0 --format text":
        (0, "97b30ae1d08e184fb47bbc0e866068015b362ada38c57d3ae201d32028cec5b3"),
    "vertex --n-max 0 --format json":
        (0, "5742f69793673f387667c924f8ad885451ccc8ec9d289080e14d73ab7edc9ddd"),
    "vertex --n-max 0 --format csv":
        (0, "e5681d7c0b257cbe939b5ee2e7f1bff293f56bacc047b8f80e007f6446942ab2"),
    "vertex --n-max 3 --format text":
        (0, "de3b343830b8a0a4d5abe475d964cec7563fdfdbdaa1de3de5f7449f3063c107"),
    "vertex --n-max 3 --format json":
        (0, "bee5e3c8f3476e9082ba000375e0031dff5e31e2a5250d67e95a60649849adf0"),
    "vertex --n-max 3 --format csv":
        (0, "9744170cb2634b0ea48595b2f1b7e8eee91da4d64ef873184f00af7cfe238520"),
    "vertex --n-max 2 --s 1,7,41,-49 --check-oracle --format text":
        (0, "7dc5a6e0dab2962d0c9803467395910271673c8788468ce2bbbe685123e68c8b"),
    "vertex --n-max 2 --s 1,7,41,-49 --check-oracle --format json":
        (0, "6ef9e10cd1ed29e54a27c8ff6a440d30981df5785e2ec24f6b4ba38ca69840b4"),
    "vertex --n-max 2 --s 1,7,41,-49 --check-oracle --format csv":
        (0, "758a8568321876b8ec651b3f1223d2fd6e03ff74b9e119ef6b480637e250d052"),
    "vertex --n-max 5 --s 1,7,41,-49 --check-oracle --format json":
        (0, "81e9378df70dd9512b83d59e8566d8d71e46e0b248967682008817eccddfdb49"),
    "dt4-series --format text":
        (0, "9ac0e5c85616fa1919664c1b5ed9ddfc55466b6de7eb588d4c34a6dc935ecb98"),
    "dt4-series --format json":
        (0, "27573098345294659ff748cb07c7db2475dad9e046fc83e4bc1a4fa2d1510d73"),
    "dt4-series --format csv":
        (0, "7a178823d71b8d3e1c988caed964f8b16622003f969656790934204562386619"),
    "dt4-series --n-max 0 --format text":
        (0, "bd31ada022b8418a3285d9eba129424d83a72c36c571da178c1ff8f39fa6edd5"),
    "dt4-series --n-max 0 --format json":
        (0, "23e876a3b05d5048e203388d955b5a7c1aaeccec17982228f4699e36b156d61d"),
    "dt4-series --n-max 0 --format csv":
        (0, "28727a45d11f08d29092df474dcf7d927d9995c663e995814f12d417f38548c8"),
    "dt4-series --n-max 3 --s 1,7,41,-49 --check-oracle --format text":
        (0, "2e9f72f59016519fed6f91daaa9ce9cea291667064fd1f3a8fac6786f9a40f0e"),
    "dt4-series --n-max 3 --s 1,7,41,-49 --check-oracle --format json":
        (0, "070b376b7a0776bac49148f7343c82a03445145e0a558f6364d5e964b4c03a69"),
    "dt4-series --n-max 3 --s 1,7,41,-49 --check-oracle --format csv":
        (0, "c3b42c837e87d686b80308ad02351532346f3fe7bfa89f825b49aef1191ee906"),
    "dt4-series --n-max 3 --s 1,7,41,-49 --jobs 2 --format text":
        (0, "3f9354695514b641704a25dc9012a9850b7bfbc0b8abee3e3e06a7b785751fde"),
    "dt4-series --n-max 3 --s 1,7,41,-49 --jobs 2 --format json":
        (0, "78363ca17b20b88e24a08eda320c64166b1425a211651a791567de35ea06cb27"),
    "dt4-series --n-max 3 --s 1,7,41,-49 --jobs 2 --format csv":
        (0, "c3b42c837e87d686b80308ad02351532346f3fe7bfa89f825b49aef1191ee906"),
    "dt4-series --n-max 2 --s 1,7,41,-49 --orientation orient.json --format text":
        (0, "2d0547b752856196eb3af6638646cc5f7750b5932dd2d359222ef862b9bf7ab2"),
    "dt4-series --n-max 2 --s 1,7,41,-49 --orientation orient.json --format json":
        (0, "40801cb549714e236c518885cb46ee2aca5f7a327f7293007ccc4e18fe91374f"),
    "dt4-series --n-max 2 --s 1,7,41,-49 --orientation orient.json --format csv":
        (0, "33338c1e39edaed90530057a25bfa2ed7d0a18f030452d940d5b561583e0081e"),
    "goettsche --euler 3 --format text":
        (0, "434412e9d1b57db9700201bc662c9e5e4e2babef4551aab5ea9142645fac5a4f"),
    "goettsche --euler 3 --format json":
        (0, "0b5408b86102800e83cd29682a48bcdf44be7a6ee156b499cbd828470cdee5e9"),
    "goettsche --euler 3 --format csv":
        (0, "b0cb669a4ab8551e92b81a0e1646beba2ca65721c6ac6f0cdbdfbec574939749"),
    "goettsche --euler -2 --n-max 6 --check-oracle --format text":
        (0, "421faf29d9852c16731000a35f057aa5a94e69d4b7f6549c63c01d9151d62eaa"),
    "goettsche --euler -2 --n-max 6 --check-oracle --format json":
        (0, "5b5b1094bd3a1c9eb2d9c91b6ad8cff014f6daaf522ec3df0c3e6d1fb62f9df6"),
    "goettsche --euler -2 --n-max 6 --check-oracle --format csv":
        (0, "197448633c6930bc5598665668dfaf4f277284165ff9b61c3b0e97e5c4450885"),
    "tstar --c 1,0,-4 --euler 3 --format text":
        (0, "56de41db8ea3e9a0346a53c212cc0482aad6c11545dc7e5b3c90bde2419dbaa0"),
    "tstar --c 1,0,-4 --euler 3 --format json":
        (0, "f008354d510bcfc1f6834bf039666bb0dca10f4ef6fa023c56ed8d051ab5cbf7"),
    "tstar --c 1,0,-4 --euler 3 --format csv":
        (0, "cf322b078a9e68b2b0cd40b89c669174d8cf7f89fa9ed82446fee92b9b3e6ac1"),
    "tstar --c 2,1,5 --format text":
        (0, "3cb9339780b2af69e29ebe059a43cb69898c18fda33497e8817fb729f7ce4a90"),
    "tstar --c 2,1,5 --format json":
        (0, "f5816db9a36220ee35fbf57d57923d6d9da8d8038ba052938852ccdfd24faa18"),
    "tstar --c 2,1,5 --format csv":
        (0, "889300249e07ca219e15b1462deedcd50bb3eeb771aad7e45165e50cab0c8c0c"),
    "tstar --c 2,1,5 --euler 3 --format text":
        (0, "3cb9339780b2af69e29ebe059a43cb69898c18fda33497e8817fb729f7ce4a90"),
    "tstar --c 2,1,5 --euler 3 --format json":
        (0, "f5816db9a36220ee35fbf57d57923d6d9da8d8038ba052938852ccdfd24faa18"),
    "tstar --c 2,1,5 --euler 3 --format csv":
        (0, "889300249e07ca219e15b1462deedcd50bb3eeb771aad7e45165e50cab0c8c0c"),
    "tstar --c 1,2,0 --format text":
        (0, "7e4522394b3cb2e00b83d5c23c521870979697ca9c2776357957cf1fc6942deb"),
    "tstar --c 1,2,0 --format json":
        (0, "1412b35cde5ceefdf520c5a5265171be4f1f851414069149d403583e54b53229"),
    "tstar --c 1,2,0 --format csv":
        (0, "713fac5057bd5c6deaa0bd0d4d6192efa16bd36613ae57ce21b6ea1ad95c9624"),
    "cyclic-check --format text":
        (0, "88c0c78cf1cb9705a5a3d2b2b8c913d3c09fb36c7986e4ecc11ce14fd07d6c80"),
    "cyclic-check --format json":
        (0, "1827f4adaec0da4242ca0d48ff59d82031223e4d2fddd2c3ae8ce931dd3626e3"),
    "cyclic-check --format csv":
        (0, "3ba838b27528260830992db3366677fcd4667f98e8dacd4a515bd26fdb6cbe19"),
    "cyclic-check --n-max 6 --format json":
        (0, "ffcadeb4d0b7a9818f7f176107120eb006d20aed7dd41cb66464043b6dcafef8"),
    "suite --format text":
        (0, "df8a2d80a63ceeabc8d21872591a019e8f2e8ec1cef859ac425f3c988ba65742"),
    "suite --format json":
        (0, "41fa3ebb5e5fcd29d5ebfb1f266bc748f9c1a4140044e44afb0df1d33bebade7"),
    "suite --format csv":
        (0, "8ed303f4df80e24556ed980816d649155fd367e4401d80387b97a4d2239d3cb9"),
    "suite --only goettsche --format text":
        (0, "13456b2833c3193ddbf251046c7433ddbf033b149df3c0fc257c76d5d37cf65c"),
    "suite --only goettsche --format json":
        (0, "ea03362e33209ffa7cb583da7f0094d8d2bdc2b75abc27da2e6c3cca7fe0348d"),
    "suite --only goettsche --format csv":
        (0, "9a49d11378bc79b10297935fe95e516450a062be4b8b5de9fc6c973d3566fe01"),
    "suite --orientation orient.json --format text":
        (0, "df8a2d80a63ceeabc8d21872591a019e8f2e8ec1cef859ac425f3c988ba65742"),
    "suite --orientation orient.json --format json":
        (0, "41fa3ebb5e5fcd29d5ebfb1f266bc748f9c1a4140044e44afb0df1d33bebade7"),
    "suite --orientation orient.json --format csv":
        (0, "8ed303f4df80e24556ed980816d649155fd367e4401d80387b97a4d2239d3cb9"),
    "goettsche":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tstar":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tstar --c 1,0,-4":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tstar --c 1,3,-2":
        (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tstar --c 1,0,2":
        (5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tstar --c 1,2":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "tstar --c 0,0,0":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "chi --left x":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dt4-series --n-max 3":
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dt4-series --s 1,2,3,4":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dt4-series --s 0,0,0,0":
        (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dt4-series --orientation missing.json":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "partitions --n-max 9":
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "suite --only nonsense":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "frobnicate":
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("line", list(PINS))
def test_stdout_and_exit_code_match_pin(line, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DT4_MAX_N", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "orient.json").write_text(json.dumps(ORIENTATION))
    try:
        code = main(line.split())
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINS[line]


def _benchmark_workloads():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "benchmarks", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _benchmark_workloads()
BENCHMARK_PINS = WORKLOADS.load_pins()["stdout_sha256"]


@pytest.mark.parametrize("workload", sorted(BENCHMARK_PINS))
def test_benchmark_stdout_matches_its_pin(workload, tmp_path, monkeypatch, capsys):
    # the benchmark counts an operation as failed when its stdout digest
    # leaves benchmarks/pins.json, so the pins above cannot move alone
    monkeypatch.delenv("DT4_MAX_N", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(list(WORKLOADS.CLI_ARGV[workload])) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_PINS[workload]
