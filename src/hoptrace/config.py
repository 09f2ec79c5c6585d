"""Run configuration: dataclass defaults <- config file <- CLI overrides.

load_settings is the one reader of settings files: the train config and
the synthetic dataset spec both go through it, each with its own error
class, and check their integer settings with check_ints and their real
ones with check_floats."""

from __future__ import annotations

import io
import math
from dataclasses import asdict, dataclass, fields

from .errors import UsageError, read_text

FORMS = ("label", "text")
HEADS = ("softmax", "sigmoid")
AGGREGATIONS = ("sum", "max")
# (field, least value or None, may be null) of every integer setting
_INT_FIELDS = (("T", 1, False), ("d", 2, False), ("epochs", 1, False),
               ("batch_size", 1, True), ("omega", 1, True), ("seed", 0, False))
_FLOAT_FIELDS = ("lr", "tau", "limit_train")
_FLAG_FIELDS = ("use_truncation", "use_mask", "use_aux_hop_loss")
_CHOICE_FIELDS = (("head", HEADS), ("aggregation", AGGREGATIONS))


def check_ints(settings, table, error, noun):
    """Raise error unless each (field, least value or None, may be null) of
    table names an integer of settings at or above its least value.  A bool
    is no integer."""
    for name, least, nullable in table:
        value = getattr(settings, name)
        if value is None and nullable:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise error(f"{noun} value of the wrong type: {name} must be an integer, got {value!r}")
        if least is not None and value < least:
            null = " or null" if nullable else ""
            raise error(f"{name} must be >= {least}{null}, got {value}")


def is_real(value) -> bool:
    """Whether value is a finite int or float; a bool is no number."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)


def check_floats(settings, names, error, noun):
    """Raise error unless each of names is a finite number of settings
    (is_real): NaN passes every range check that is written as a failed
    comparison."""
    for name in names:
        value = getattr(settings, name)
        if not is_real(value):
            raise error(f"{noun} value of the wrong type: {name} must be a finite number, got {value!r}")


def load_settings(cls, path, error, noun, overrides=None, base=None):
    """cls(**values).validate(): values is every key of base, then the YAML
    mapping in the file at path (none when path is None), then every key of
    overrides, whatever its value.  Text that is no UTF-8 or no YAML, YAML
    that is no mapping, an unknown key and a value of the wrong type all
    raise error."""
    known = {f.name for f in fields(cls)}
    values = {}
    where = ""
    if path is not None:
        import yaml  # here, so commands that read no settings file never load it

        where = f"{path}: "
        stream = io.StringIO(read_text(path, error))
        stream.name = str(path)  # the file yaml names in its error marks
        try:
            values = yaml.safe_load(stream) or {}
        except yaml.YAMLError as e:
            raise error(f"{path}: not valid YAML: {' '.join(str(e).split())}") from None
        if not isinstance(values, dict):
            raise error(f"{path}: {noun} must be a mapping")
        unknown = set(values) - known
        if unknown:
            raise error(f"{path}: unknown {noun} keys {sorted(unknown)}")
    for k, v in (overrides or {}).items():
        if k not in known:
            raise error(f"unknown {noun} key {k!r}")
        values[k] = v  # None included: omega=None lifts the cap
    try:
        return cls(**{**(base or {}), **values}).validate()
    except TypeError as e:  # a value of the wrong type, such as tau: "x"
        raise error(f"{where}{noun} value of the wrong type: {e}") from None


@dataclass
class TrainConfig:
    form: str = "label"
    T: int = 3
    d: int = 64
    lr: float = 0.001
    epochs: int = 20
    seed: int = 0
    head: str = "softmax"
    aggregation: str = "sum"
    tau: float = 0.7
    omega: int | None = 400
    use_truncation: bool = True
    use_mask: bool = True
    use_aux_hop_loss: bool = True
    batch_size: int | None = None  # None: 64 for label form, 16 for text form
    limit_train: float = 1.0

    def validate(self):
        check_ints(self, _INT_FIELDS, UsageError, "config")
        check_floats(self, _FLOAT_FIELDS, UsageError, "config")
        for name in _FLAG_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise UsageError(f"config value of the wrong type: {name} must be true or false, got {value!r}")
        if self.form not in FORMS:
            raise UsageError(f"form must be one of {FORMS}, got {self.form!r}:"
                             " build the graph again with `hoptrace build-graph` and train on it")
        for name, choices in _CHOICE_FIELDS:
            value = getattr(self, name)
            if value not in choices:
                raise UsageError(f"{name} must be one of {choices}, got {value!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise UsageError(f"tau must be in [0, 1], got {self.tau}")
        if self.lr <= 0:
            raise UsageError(f"lr must be > 0, got {self.lr}")
        if not 0.0 < self.limit_train <= 1.0:
            raise UsageError(f"limit_train must be in (0, 1], got {self.limit_train}")
        return self

    @property
    def effective_batch_size(self) -> int:
        if self.batch_size is not None:
            return self.batch_size
        return 64 if self.form == "label" else 16

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_sources(cls, config_file=None, overrides: dict | None = None, form: str = "label") -> "TrainConfig":
        """defaults <- form <- YAML file <- overrides (load_settings): train
        passes its graph's form.  The run's paths are no setting: train takes
        them from its options alone, so a checkpoint's bytes do not depend on
        where the run read or wrote."""
        return load_settings(cls, config_file, UsageError, "config", overrides, base={"form": form})
