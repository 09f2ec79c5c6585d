"""Run configuration: dataclass defaults <- config file <- CLI overrides."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .errors import UsageError

FORMS = ("label", "text", "mixed")
HEADS = ("softmax", "sigmoid")
AGGREGATIONS = ("sum", "max")
# (field, least value or None, may be null) of every integer setting
_INT_FIELDS = (("T", 1, False), ("d", 2, False), ("epochs", 1, False),
               ("batch_size", 1, True), ("omega", 1, True), ("seed", None, False))

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
    batch_size: int | None = None  # None: 64 for label form, 16 for text/mixed
    limit_train: float = 1.0
    # data paths (resolved by the CLI; kept here so artifacts embed them)
    data_dir: str | None = None
    graph_path: str | None = None
    out_dir: str | None = None

    def validate(self):
        if self.form not in FORMS:
            raise UsageError(f"form must be one of {FORMS}, got {self.form!r}")
        if self.head not in HEADS:
            raise UsageError(f"head must be one of {HEADS}, got {self.head!r}")
        if self.aggregation not in AGGREGATIONS:
            raise UsageError(f"aggregation must be one of {AGGREGATIONS}")
        if not 0.0 <= self.tau <= 1.0:
            raise UsageError(f"tau must be in [0, 1], got {self.tau}")
        for name, least, nullable in _INT_FIELDS:
            value = getattr(self, name)
            if value is None and nullable:
                continue
            if isinstance(value, bool) or not isinstance(value, int):  # a bool is no count
                raise UsageError(f"config value of the wrong type: {name} must be an integer, got {value!r}")
            if least is not None and value < least:
                null = " or null" if nullable else ""
                raise UsageError(f"{name} must be >= {least}{null}, got {value}")
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
    def from_sources(cls, config_file=None, overrides: dict | None = None) -> "TrainConfig":
        """defaults <- YAML file <- overrides, rejecting unknown keys.  Every
        key given in overrides wins, whatever its value."""
        known = {f.name for f in fields(cls)}
        merged: dict = {}
        if config_file is not None:
            import yaml  # here, so commands that read no config never load it

            try:
                with open(config_file, encoding="utf-8") as f:
                    loaded = yaml.safe_load(f) or {}
            except UnicodeDecodeError as e:
                raise UsageError(f"{config_file}: not UTF-8 text: {e}") from None
            except yaml.YAMLError as e:
                raise UsageError(f"{config_file}: not valid YAML: {' '.join(str(e).split())}") from None
            if not isinstance(loaded, dict):
                raise UsageError(f"{config_file}: config must be a mapping")
            unknown = set(loaded) - known
            if unknown:
                raise UsageError(f"{config_file}: unknown config keys {sorted(unknown)}")
            merged.update(loaded)
        for k, v in (overrides or {}).items():
            if k not in known:
                raise UsageError(f"unknown config key {k!r}")
            merged[k] = v  # None included: omega=None lifts the cap
        try:
            return cls(**merged).validate()
        except TypeError as e:  # a value of the wrong type, such as epochs: "x"
            raise UsageError(f"config value of the wrong type: {e}") from None
