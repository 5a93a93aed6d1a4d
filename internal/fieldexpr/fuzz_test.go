package fieldexpr

import "testing"

// FuzzCompile feeds arbitrary source to the expression compiler: Compile
// returns a field or an error and never panics, and a field that compiled
// answers HalfWidth at every order 2–8 (an error for an order the stencils
// do not offer) without panicking either.
func FuzzCompile(f *testing.F) {
	for _, src := range []string{
		// README's and examples/custom-field's RegisterField expressions,
		// then a nested operator and two sources that must not compile.
		"norm(cross(velocity, curl(velocity)))",
		"abs(dot(velocity, magnetic))",
		"dot(curl(velocity), curl(velocity))",
		"div(grad(pressure))",
		"curl(",
		"",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fd, err := Compile("fuzzed", src, testRaws)
		if err != nil {
			return
		}
		for order := 2; order <= 8; order++ {
			if hw, err := fd.HalfWidth(order); err == nil && hw < 0 {
				t.Errorf("%q: HalfWidth(%d) = %d", src, order, hw)
			}
		}
	})
}
