"""Experiment configuration: plain-text key-value files with sections.

The format is INI (configparser). Inclusion and source entries pack their
parameters into a single semicolon-separated value so a phantom stays
readable and diffable::

    [coefficients.two_photon]
    background = 0.05
    inclusion1 = square; center = 0.0, -0.4; size = 0.3; value = 0.1

    [sources]
    source1 = constant; value = 0.8
    source3 = affine; a = 1.4; bx = 0.6; by = 0.0

Sources must be strictly positive on the boundary; `affine` means
g(x, y) = a + bx*x + by*y restricted to the boundary.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import ValidationError, require_count
from .forward import BoundarySource, check_noise_level, noise_stream_seed
from .lsq import LsqConfig
from .mesh import Mesh
from .phantoms import Inclusion, Phantom, PhantomField

COEFF_SECTIONS = {
    "gruneisen": "coefficients.gruneisen",
    "diffusion": "coefficients.diffusion",
    "single_photon": "coefficients.single_photon",
    "two_photon": "coefficients.two_photon",
}


SOURCE_PARAMETERS = {"constant": ("value",), "affine": ("a", "bx", "by")}
INCLUSION_PARAMETERS = ("center", "size", "value")
# the [lsq] keys, in LsqConfig field order, with the type of each default
LSQ_CONVERTERS = {f.name: type(f.default) for f in dataclasses.fields(LsqConfig)}


def _number(value) -> str:
    """value as :g where that reads back as the same float, else as repr."""
    value = float(value)
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _expect_keys(params, keys, context):
    """Reject packed parameters other than keys, naming the first odd key."""
    odd = sorted(set(keys) ^ set(params))
    if odd:
        state = "unknown" if odd[0] in params else "missing"
        raise ValidationError(f"{context}: {state} key {odd[0]!r}")


@dataclass(frozen=True)
class SourceSpec:
    """One boundary illumination of a config's [sources] section.

    Frozen, with params a read-only mapping of floats: the check in
    __post_init__ is the only one. Build a changed one with
    dataclasses.replace.
    """

    kind: str                      # "constant" | "affine"
    params: MappingProxyType       # parameter name -> float, read-only

    def __post_init__(self):
        if self.kind not in SOURCE_PARAMETERS:
            raise ValidationError(f"unknown source kind {self.kind!r}")
        _expect_keys(self.params, SOURCE_PARAMETERS[self.kind], f"source {self.kind!r}")
        object.__setattr__(self, "params", MappingProxyType(
            {k: _conv(v, f"source {self.kind!r} {k}", float) for k, v in self.params.items()}))
        if not all(math.isfinite(v) for v in self.params.values()):
            raise ValidationError(f"source {self.kind!r}: parameters must be finite")

    def build(self, mesh: Mesh) -> BoundarySource:
        if self.kind == "constant":
            src = BoundarySource.constant(mesh, self.params["value"])
        else:
            x, y = mesh.nodes[mesh.boundary_list].T
            src = BoundarySource(mesh, self.params["a"] + self.params["bx"] * x
                                 + self.params["by"] * y)
        return src.require_strictly_positive()

    def describe(self) -> str:
        items = "; ".join(f"{k} = {_number(self.params[k])}" for k in sorted(self.params))
        return f"{self.kind}; {items}"


@dataclass
class ExperimentConfig:
    """A run's settings: meshes, phantom, sources, noise and [lsq].

    Checked when it is made, by dataclasses.replace too, which is how a
    changed config is built. The records it holds (Phantom, SourceSpec,
    LsqConfig) are frozen and were checked when they were made. A field
    assigned after that is not checked until validate() runs again, as
    prepare_data and run_experiment make it do.
    """

    mesh_n: int = 32
    data_mesh_n: int | None = None       # different mesh = inversion-crime guard on
    phantom: Phantom = None
    sources: list = field(default_factory=list)
    noise_levels: list = field(default_factory=lambda: [0.0, 1.0, 2.0, 5.0])
    seeds: list = field(default_factory=lambda: list(range(101, 111)))
    lsq: LsqConfig = field(default_factory=LsqConfig)

    def __post_init__(self):
        self.validate()

    def validate(self):
        require_count(self.mesh_n, "mesh n")
        if self.data_mesh_n is not None:
            require_count(self.data_mesh_n, "data mesh n")
        if self.phantom is None:
            raise ValidationError("config needs a phantom")
        if not self.sources:
            raise ValidationError("config needs at least one source")
        # valid levels, no two sharing an output file tag or a noise stream
        seen: dict = {}
        for e in self.noise_levels:
            stream = noise_stream_seed(0, 0, check_noise_level(e))[-1]
            for key in (f"the file tag eps{e:g}", f"the noise stream {stream}"):
                if key in seen:
                    raise ValidationError(f"noise levels {seen[key]!r} and {e!r} "
                                          f"share {key}")
                seen[key] = e
        if not self.seeds:
            raise ValidationError("config needs at least one seed")
        for s in self.seeds:
            if isinstance(s, bool) or not isinstance(s, numbers.Integral):
                raise ValidationError(f"seeds must be integers, got {s!r}")
        if any(s < 0 for s in self.seeds):
            raise ValidationError("seeds must be nonnegative")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ValidationError(f"seeds repeat: {', '.join(map(str, repeated))}")
        return self

    def canonical_text(self) -> str:
        """Normalized echo of the configuration, stable across runs and exact."""
        out = io.StringIO()
        print("[mesh]", file=out)
        print(f"n = {self.mesh_n}", file=out)
        if self.data_mesh_n is not None:
            print(f"data_n = {self.data_mesh_n}", file=out)
        for name, section in COEFF_SECTIONS.items():
            pf = getattr(self.phantom, name)
            print(f"\n[{section}]", file=out)
            print(f"background = {_number(pf.background)}", file=out)
            for k, inc in enumerate(pf.inclusions, start=1):
                print(f"inclusion{k} = {inc.shape}; "
                      f"center = {_number(inc.center[0])}, {_number(inc.center[1])}; "
                      f"size = {_number(inc.size)}; value = {_number(inc.value)}",
                      file=out)
        print("\n[sources]", file=out)
        for k, s in enumerate(self.sources, start=1):
            print(f"source{k} = {s.describe()}", file=out)
        print("\n[noise]", file=out)
        print("levels = " + ", ".join(map(_number, self.noise_levels)), file=out)
        print("seeds = " + ", ".join(str(s) for s in self.seeds), file=out)
        print("\n[lsq]", file=out)
        for key, conv in LSQ_CONVERTERS.items():
            value = getattr(self.lsq, key)
            print(f"{key} = {_number(value) if conv is float else value}", file=out)
        return out.getvalue()


def _parse_packed(value: str, context: str) -> dict:
    """Parse 'kind; key = v; key = v' into {'kind': ..., params}; a key may
    appear once."""
    parts = [p.strip() for p in value.split(";") if p.strip()]
    if not parts:
        raise ValidationError(f"{context}: empty specification")
    kind = parts[0]
    params = {}
    for item in parts[1:]:
        if "=" not in item:
            raise ValidationError(f"{context}: expected 'key = value', got {item!r}")
        key, val = (part.strip() for part in item.split("=", 1))
        if key in params:
            raise ValidationError(f"{context}: repeated key {key!r}")
        params[key] = val
    return {"kind": kind, "params": params}


def _parse_float_pair(text: str, context: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError(f"{context}: expected 'x, y', got {text!r}")
    return _conv(parts[0], context, float), _conv(parts[1], context, float)


def _parse_phantom_field(section, heading: str) -> PhantomField:
    if "background" not in section:
        raise ValidationError(f"[{heading}] needs a 'background' value")
    background = _conv(section["background"], f"[{heading}] background", float)
    inclusions = []
    for key in section:
        if not key.startswith("inclusion"):
            if key != "background":
                raise ValidationError(f"[{heading}] unknown key {key!r}")
            continue
        context = f"[{heading}] {key}"
        packed = _parse_packed(section[key], context)
        params = packed["params"]
        _expect_keys(params, INCLUSION_PARAMETERS, context)
        inclusions.append(Inclusion(
            shape=packed["kind"], center=_parse_float_pair(params["center"], context),
            size=_conv(params["size"], context, float),
            value=_conv(params["value"], context, float)))
    return PhantomField(background=background, inclusions=inclusions)


def parse_number_list(text: str, context: str, conv=float) -> list:
    out = []
    for item in text.split(","):
        item = item.strip()
        if item:
            out.append(_conv(item, context, conv))
    return out


def load_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config file {path}: {exc}") from None
    if not read:
        raise ValidationError(f"cannot read config file {path}")
    return parse_config(parser)


def parse_config(parser: configparser.ConfigParser) -> ExperimentConfig:
    kwargs: dict = {}
    if parser.has_section("mesh"):
        sec = _known_keys(parser, "mesh", ("n", "data_n"))
        if "n" in sec:
            kwargs["mesh_n"] = _conv(sec["n"], "[mesh] n", int)
        if sec.get("data_n", "").strip():
            kwargs["data_mesh_n"] = _conv(sec["data_n"], "[mesh] data_n", int)

    fields = {}
    for name, heading in COEFF_SECTIONS.items():
        if not parser.has_section(heading):
            raise ValidationError(f"config missing section [{heading}]")
        fields[name] = _parse_phantom_field(parser[heading], heading)

    if not parser.has_section("sources"):
        raise ValidationError("config missing section [sources]")
    sources = []
    for key in parser["sources"]:
        packed = _parse_packed(parser["sources"][key], f"[sources] {key}")
        try:
            sources.append(SourceSpec(kind=packed["kind"], params=packed["params"]))
        except ValidationError as exc:
            raise ValidationError(f"[sources] {key}: {exc}") from None

    if parser.has_section("noise"):
        sec = _known_keys(parser, "noise", ("levels", "seeds"))
        if "levels" in sec:
            kwargs["noise_levels"] = parse_number_list(sec["levels"], "[noise] levels")
        if "seeds" in sec:
            kwargs["seeds"] = parse_number_list(sec["seeds"], "[noise] seeds", conv=int)

    if parser.has_section("lsq"):
        sec = _known_keys(parser, "lsq", LSQ_CONVERTERS)
        kwargs["lsq"] = LsqConfig(**{key: _conv(sec[key], f"[lsq] {key}", conv)
                                     for key, conv in LSQ_CONVERTERS.items()
                                     if key in sec})

    return ExperimentConfig(phantom=Phantom(**fields), sources=sources, **kwargs)


def _known_keys(parser, heading, keys):
    """The section, after rejecting any key not in keys."""
    sec = parser[heading]
    for key in sec:
        if key not in keys:
            raise ValidationError(f"[{heading}] unknown key {key!r}")
    return sec


def _conv(text, context, conv):
    """conv(text), or a ValidationError naming context and text."""
    try:
        return conv(text)
    except ValueError:
        raise ValidationError(f"{context}: bad number {text!r}") from None


def default_config() -> ExperimentConfig:
    """Built-in configuration used by the experiment drivers and tests.

    The coefficient magnitudes and source strengths are chosen so that the
    four illuminations produce photon densities with a healthy pointwise
    spread (pair separation is then well conditioned) and noise response in
    the range reported for this problem class.
    """
    phantom = Phantom(
        gruneisen=PhantomField(background=1.0),
        diffusion=PhantomField(background=0.2, inclusions=[
            Inclusion("disk", (-0.45, 0.4), 0.3, 0.3),
        ]),
        single_photon=PhantomField(background=0.15, inclusions=[
            Inclusion("disk", (0.45, 0.4), 0.25, 0.3),
        ]),
        two_photon=PhantomField(background=0.05, inclusions=[
            Inclusion("square", (0.0, -0.4), 0.3, 0.1),
        ]),
    )
    sources = [
        SourceSpec("constant", {"value": 0.5}),
        SourceSpec("constant", {"value": 3.0}),
        SourceSpec("affine", {"a": 1.75, "bx": 1.0, "by": 0.0}),
        SourceSpec("affine", {"a": 1.75, "bx": 0.0, "by": -1.0}),
    ]
    return ExperimentConfig(phantom=phantom, sources=sources)


def write_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(cfg.canonical_text())
