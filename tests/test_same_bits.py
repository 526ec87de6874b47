"""tools/same_bits.py on real checkouts: the repo against itself, and against
a copy whose W is one ulp off."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("same_bits", ROOT / "tools" / "same_bits.py")
same_bits = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_bits)

# DuSolution._cumulative's two returns, W at a float and on an array
W_READS = (
    ("return float(self._offsets[i]) + _clenshaw(self._coefs[:, i].tolist(), (2.0 * t - a - b) / (b - a))",
     "return math.nextafter(float(self._offsets[i]) + _clenshaw(self._coefs[:, i].tolist(), "
     "(2.0 * t - a - b) / (b - a)), math.inf)"),
    ("return self._offsets[piece] + _clenshaw(self._coefs[:, piece], (2.0 * ts - a - b) / (b - a))",
     "return np.nextafter(self._offsets[piece] + _clenshaw(self._coefs[:, piece], "
     "(2.0 * ts - a - b) / (b - a)), np.inf)"),
)


def _copy_with_w_one_ulp_up(dest: Path) -> Path:
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    variation = dest / "src" / "schwarzlab" / "variation.py"
    text = variation.read_text()
    for old, new in W_READS:
        assert text.count(old) == 1
        text = text.replace(old, new)
    variation.write_text(text)
    return dest


def test_the_repo_against_itself_gives_one_digest(capsys):
    assert same_bits.main([str(ROOT), str(ROOT), "--workload", "critical", "--seeds", "1"]) == 0
    assert capsys.readouterr().out.startswith("critical seed 1: 120 ops, same digest ")


def test_w_one_ulp_off_differs_at_the_first_critical_op(tmp_path, capsys):
    mutant = _copy_with_w_one_ulp_up(tmp_path)
    assert same_bits.main([str(ROOT), str(mutant), "--workload", "critical", "--seeds", "1-1"]) == 1
    assert capsys.readouterr().out.startswith("critical seed 1: first difference at op 0 (block 0, item 0)")


def test_seed_ranges():
    assert same_bits.seed_range("3") == range(3, 4)
    assert same_bits.seed_range("1-10") == range(1, 11)
