package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/proto"
)

// Axes describes a sweep as per-axis value lists. Specs expands the
// cross-product in fixed nested order — app outermost, then version,
// procs, scale, protocol, contention, homepolicy innermost —
// which defines the canonical output order of every sweep. An empty
// axis is pinned to the base spec's value for that field.
type Axes struct {
	Apps         []string
	Versions     []core.Version
	Procs        []int
	Scales       []core.Scale
	Protocols    []proto.Name
	Contentions  []int
	HomePolicies []proto.PolicyName
}

// Specs expands the cross-product over base. Axis values appear in the
// order given; duplicates are preserved (the engine caches, so they
// cost nothing to run but keep positional output stable).
func (a Axes) Specs(base Spec) []Spec {
	apps := a.Apps
	if len(apps) == 0 {
		apps = []string{base.App}
	}
	versions := a.Versions
	if len(versions) == 0 {
		versions = []core.Version{base.Version}
	}
	procs := a.Procs
	if len(procs) == 0 {
		procs = []int{base.Procs}
	}
	scales := a.Scales
	if len(scales) == 0 {
		scales = []core.Scale{base.Scale}
	}
	protocols := a.Protocols
	if len(protocols) == 0 {
		protocols = []proto.Name{base.Protocol}
	}
	contentions := a.Contentions
	if len(contentions) == 0 {
		contentions = []int{base.Contention}
	}
	policies := a.HomePolicies
	if len(policies) == 0 {
		policies = []proto.PolicyName{base.HomePolicy}
	}
	var out []Spec
	for _, app := range apps {
		for _, v := range versions {
			for _, p := range procs {
				for _, sc := range scales {
					for _, pr := range protocols {
						for _, ct := range contentions {
							for _, hp := range policies {
								out = append(out, Spec{
									App: app, Version: v, Procs: p, Scale: sc,
									Protocol: pr, Contention: ct, HomePolicy: hp,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// ParseAxes builds Axes from `key=v1,v2,...` tokens — the CLI sweep
// syntax (e.g. "procs=1,2,4,8 protocol=lrc,hlrc" split into tokens).
// Keys: app, version, procs, scale, protocol, contention, homepolicy.
// Blank tokens are ignored; repeated keys append. A token without '='
// is a continuation of the previous token's value list, rejoined with
// a space — application names contain spaces ("3-D FFT"), and shells
// split them into separate tokens (`-sweep "app=Jacobi,3-D FFT"`).
func ParseAxes(tokens []string) (Axes, error) {
	var joined []string
	for _, tok := range tokens {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if !strings.Contains(tok, "=") && len(joined) > 0 {
			joined[len(joined)-1] += " " + tok
			continue
		}
		joined = append(joined, tok)
	}
	var a Axes
	for _, tok := range joined {
		key, vals, ok := strings.Cut(tok, "=")
		if !ok {
			return Axes{}, fmt.Errorf("exp: sweep token %q is not key=v1,v2,...", tok)
		}
		for _, v := range strings.Split(vals, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return Axes{}, fmt.Errorf("exp: empty value in sweep token %q", tok)
			}
			switch key {
			case "app":
				a.Apps = append(a.Apps, v)
			case "version":
				a.Versions = append(a.Versions, core.Version(v))
			case "procs":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return Axes{}, fmt.Errorf("exp: bad procs %q in sweep", v)
				}
				a.Procs = append(a.Procs, n)
			case "scale":
				switch core.Scale(v) {
				case core.PaperScale, core.MidScale, core.SmallScale:
				default:
					return Axes{}, fmt.Errorf("exp: unknown scale %q in sweep", v)
				}
				a.Scales = append(a.Scales, core.Scale(v))
			case "protocol":
				p, err := proto.Parse(v)
				if err != nil {
					return Axes{}, err
				}
				a.Protocols = append(a.Protocols, p)
			case "homepolicy":
				hp, err := proto.ParsePolicy(v)
				if err != nil {
					return Axes{}, err
				}
				a.HomePolicies = append(a.HomePolicies, hp)
			case "contention":
				n, err := strconv.Atoi(v)
				if err != nil || n < -1 {
					return Axes{}, fmt.Errorf("exp: bad contention %q in sweep (want 0, -1, or a positive backplane bound)", v)
				}
				a.Contentions = append(a.Contentions, n)
			default:
				return Axes{}, fmt.Errorf("exp: unknown sweep axis %q (have app, version, procs, scale, protocol, contention, homepolicy)", key)
			}
		}
	}
	return a, nil
}
