"""Line-oriented `key = value` run configuration shared by all subcommands.

The dataclasses are the schema: a key is `<section>.<field>` or its rename,
parsed by the field's type and defaulted by the dataclass. `seed` seeds every
section, and each entry of a dict field is a key: `tokenizer.budget.<class>`.
"""

import dataclasses
import math
import typing

from .losses import LossSpec
from .model import ModelConfig
from .synth import SynthConfig
from .tokenizer import TokenizerConfig, is_token_class
from .training import TrainConfig


@dataclasses.dataclass
class RunConfig:
    tokenizer: TokenizerConfig
    model: ModelConfig
    loss: LossSpec
    train: TrainConfig
    synth: SynthConfig
    seed: int = 0
    eval_k: int = 100
    eval_threshold: float = 0.55

    def __post_init__(self) -> None:
        if self.eval_k < 1:
            raise ValueError("k must be >= 1")
        if math.isnan(self.eval_threshold):
            raise ValueError("threshold must not be NaN")

    def resolved_lines(self) -> list[str]:
        """Every set value as a `key = value` line; they load back to an equal RunConfig."""
        lines = []
        for key, (section, name, _) in _KEYS.items():
            value = getattr(getattr(self, section) if section else self, name)
            if isinstance(value, dict):
                lines += [f"{key}.{entry} = {v}" for entry, v in value.items()]
            elif isinstance(value, tuple):
                lines.append(f"{key} = {','.join(map(str, value))}")
            elif value is not None:
                lines.append(f"{key} = {value}")
        return lines


def _parse_bool(s: str) -> bool:
    if s.lower() not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"not a boolean: {s!r}")
    return s.lower() in ("true", "1", "yes")


# Parser by field type, where the type is not its own; dict entries parse as values.
_PARSERS = {bool: _parse_bool, int | None: int, dict[str, int]: int,
            tuple[int, ...]: lambda s: tuple(int(x) for x in s.split(",")) if s.strip() else ()}
_RENAMES = {
    "tokenizer.use_unigrams": "tokenizer.unigrams",
    "tokenizer.use_char_trigrams": "tokenizer.char_trigrams",
    "tokenizer.budget_per_class": "tokenizer.budget",
    "model.shared_embeddings": "model.shared",
    "synth.synonyms_per_concept": "synth.synonyms",
    "eval_k": "eval.k",
    "eval_threshold": "eval.threshold",
}

# Section name -> dataclass; section "" is RunConfig itself.
_SECTIONS = {"": RunConfig} | {
    name: cls for name, cls in typing.get_type_hints(RunConfig).items() if dataclasses.is_dataclass(cls)
}
_HINTS = {section: typing.get_type_hints(cls) for section, cls in _SECTIONS.items()}
# Key -> (section, field, field type). Only RunConfig's own `seed` is a key.
_KEYS = {
    _RENAMES.get(key, key): (section, f.name, _HINTS[section][f.name])
    for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
    if f.name not in _SECTIONS and not (section and f.name == "seed")
    for key in [f"{section}.{f.name}".lstrip(".")]
}


def _lookup(key: str) -> tuple[str, str, object, str | None]:
    """(section, field, field type, dict entry or None) for a key."""
    head, _, entry = key.rpartition(".")
    if key in _KEYS and typing.get_origin(_KEYS[key][2]) is not dict:
        return *_KEYS[key], None
    if head in _KEYS and typing.get_origin(_KEYS[head][2]) is dict and is_token_class(entry):
        return *_KEYS[head], entry
    raise ValueError("unknown config key")


def parse_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                ftype = _lookup(key)[2]
                values[key] = _PARSERS.get(ftype, ftype)(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def build_run_config(values: dict[str, object]) -> RunConfig:
    """Each section gets only the keys the file sets, so every default is its dataclass's."""
    seed = {"seed": values["seed"]} if "seed" in values else {}
    kwargs = {section: dict(seed) if "seed" in _HINTS[section] else {} for section in _SECTIONS}
    for key, value in values.items():
        section, name, _, entry = _lookup(key)
        if entry is None:
            kwargs[section][name] = value
        else:
            kwargs[section].setdefault(name, {})[entry] = value
    return RunConfig(**kwargs[""], **{s: cls(**kwargs[s]) for s, cls in _SECTIONS.items() if s})


def load_run_config(path: str) -> RunConfig:
    return build_run_config(parse_config_file(path))
