#include "corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

namespace perfbench {
namespace {

std::string S(long v) { return std::to_string(v); }

/// One generated function: its source text (helpers included) and the
/// value main prints for the call f<k>(x).
struct Fn {
  std::string text;
  long value = 0;
  double flops = 0; // of the matrix products in the function
};

// Host C: a counted loop with a branch, then a while loop.
Fn hostLoop(int k, int x, Rng& r) {
  int a = r.range(5, 40), b = r.range(2, 5), c = r.range(1, 9),
      d = r.range(1, 9), e = r.range(1, 6);
  long s = x;
  for (int i = 0; i < a; i++) {
    if (i % b == 0) s = s + long(i) * c;
    else s = s - d;
    s = s % 100003;
  }
  for (int w = 0; w < e; w++) s = s + w;
  std::string t = "int f" + S(k) + "(int x) {\n"
                  "  int s = x;\n"
                  "  for (int i = 0; i < " + S(a) + "; i++) {\n"
                  "    if (i % " + S(b) + " == 0) { s = s + i * " + S(c) +
                  "; } else { s = s - " + S(d) + "; }\n"
                  "    s = s % 100003;\n"
                  "  }\n"
                  "  int w = 0;\n"
                  "  while (w < " + S(e) + ") { s = s + w; w = w + 1; }\n"
                  "  return s;\n"
                  "}\n";
  return {t, s};
}

// Integer genarray reduced by a fold.
Fn genFold(int k, int x, Rng& r) {
  int m = r.range(2, 8), n = r.range(2, 8), a = r.range(1, 5),
      b = r.range(1, 5);
  long s = 0;
  for (int i = 0; i < m; i++)
    for (int j = 0; j < n; j++) s += long(i) * a + long(j) * b + x;
  std::string t =
      "int f" + S(k) + "(int x) {\n"
      "  int m = " + S(m) + ";\n"
      "  int n = " + S(n) + ";\n"
      "  Matrix int <2> g = with ([0,0] <= [i,j] < [m,n]) genarray([m,n], i * " +
      S(a) + " + j * " + S(b) + " + x);\n"
      "  int s = with ([0,0] <= [i,j] < [m,n]) fold(+, 0, g[i,j]);\n"
      "  return s % 100003;\n"
      "}\n";
  return {t, s % 100003};
}

// Float genarray with a §V transform clause. Every value is a multiple of
// 0.25 far below 2^22, so the float sum is exact in any order.
Fn transformed(int k, int x, Rng& r) {
  static const char* kClauses[] = {
      "transform { split j by 4, jin, jout; vectorize jin; parallelize i; }",
      "transform { parallelize i; }",
      "transform { split j by 4, jin, jout; parallelize i; }",
  };
  int m = r.range(2, 8), n = 4 * r.range(1, 3);
  const char* clause = kClauses[r.range(0, 2)];
  double s = 0;
  for (int i = 0; i < m; i++)
    for (int j = 0; j < n; j++) s += i * 0.5 + j * 0.25 + x;
  std::string t =
      "int f" + S(k) + "(int x) {\n"
      "  int m = " + S(m) + ";\n"
      "  int n = " + S(n) + ";\n"
      "  Matrix float <2> g = init(Matrix float <2>, m, n);\n"
      "  g = with ([0,0] <= [i,j] < [m,n]) genarray([m,n], i * 0.5 + j * 0.25 + x)\n"
      "    " + clause + ";\n"
      "  float s = with ([0,0] <= [i,j] < [m,n]) fold(+, 0.0, g[i,j]);\n"
      "  return (int)(s);\n"
      "}\n";
  return {t, long(s)};
}

// matrixMap of a 1-D helper over the rows of an integer matrix.
Fn matrixMapped(int k, int x, Rng& r) {
  int rows = r.range(2, 6), cols = r.range(2, 8), a = r.range(1, 4),
      b = r.range(1, 3);
  long s = 0;
  for (int i = 0; i < rows; i++)
    for (int j = 0; j < cols; j++) s += (long(i) + long(j) * b + x) * a + j;
  std::string dims = "[" + S(rows) + "," + S(cols) + "]";
  std::string t =
      "Matrix int <1> g" + S(k) + "(Matrix int <1> v) {\n"
      "  return with ([0] <= [q] < [dimSize(v, 0)]) genarray([dimSize(v, 0)], v[q] * " +
      S(a) + " + q);\n"
      "}\n"
      "int f" + S(k) + "(int x) {\n"
      "  Matrix int <2> m = with ([0,0] <= [i,j] < " + dims + ") genarray(" + dims +
      ", i + j * " + S(b) + " + x);\n"
      "  Matrix int <2> r = matrixMap(g" + S(k) + ", m, [1]);\n"
      "  return (with ([0,0] <= [i,j] < " + dims + ") fold(+, 0, r[i,j])) % 100003;\n"
      "}\n";
  return {t, s % 100003};
}

// A tuple-returning helper and a tuple assignment.
Fn tupled(int k, int x, Rng& r) {
  int a = r.range(1, 20), b = r.range(0, 9), c = r.range(2, 9),
      d = r.range(1, 5);
  long num = long(x) * a + b;
  long v = (num / c) * d + num % c;
  std::string t =
      "(int, int) t" + S(k) + "(int a, int b) { return (a / b, a % b); }\n"
      "int f" + S(k) + "(int x) {\n"
      "  int d = 0;\n"
      "  int r = 0;\n"
      "  (d, r) = t" + S(k) + "(x * " + S(a) + " + " + S(b) + ", " + S(c) + ");\n"
      "  return d * " + S(d) + " + r;\n"
      "}\n";
  return {t, v};
}

// Refcount pointers: a shared buffer written through an alias.
Fn refcounted(int k, int x, Rng& r) {
  int n = r.range(2, 12), a = r.range(1, 6), b = r.range(1, 20);
  long s = b;
  for (int i = 0; i < n; i++) s += long(i) * a + x;
  std::string t =
      "int f" + S(k) + "(int x) {\n"
      "  refptr int p = rcalloc(int, " + S(n) + ");\n"
      "  for (int i = 0; i < " + S(n) + "; i++) { p[i] = i * " + S(a) + " + x; }\n"
      "  refptr int q = p;\n"
      "  q[0] = q[0] + " + S(b) + ";\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < " + S(n) + "; i++) { s = s + p[i]; }\n"
      "  return s;\n"
      "}\n";
  return {t, s};
}

// A small matrix product of integer-valued floats (exact in float).
Fn product(int k, int x, Rng& r) {
  int n = r.range(4, 12), p = r.range(3, 7), q = r.range(1, 3);
  long s = 0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      for (int l = 0; l < n; l++)
        s += long((i + l + x) % p) * long((l * q + j) % 3);
  std::string t =
      "int f" + S(k) + "(int x) {\n"
      "  int n = " + S(n) + ";\n"
      "  Matrix float <2> a = with ([0,0] <= [i,j] < [n,n]) genarray([n,n], "
      "(float)((i + j + x) % " + S(p) + "));\n"
      "  Matrix float <2> b = with ([0,0] <= [i,j] < [n,n]) genarray([n,n], "
      "(float)((i * " + S(q) + " + j) % 3));\n"
      "  Matrix float <2> c = a * b;\n"
      "  return (int)(with ([0,0] <= [i,j] < [n,n]) fold(+, 0.0, c[i,j]));\n"
      "}\n";
  return {t, s, 2.0 * n * n * n};
}

// Two genarrays and a fold: the chain -O1 fuses.
Fn chain(int k, int x, Rng& r) {
  int m = r.range(2, 8), n = r.range(2, 8), a = r.range(1, 5);
  long s = 0;
  for (int i = 0; i < m; i++)
    for (int j = 0; j < n; j++) s += (long(i) + j + x) * a;
  std::string dims = "[" + S(m) + "," + S(n) + "]";
  std::string sp = "with ([0,0] <= [i,j] < " + dims + ")";
  std::string t =
      "int f" + S(k) + "(int x) {\n"
      "  Matrix int <2> a = " + sp + " genarray(" + dims + ", i + j + x);\n"
      "  Matrix int <2> b = " + sp + " genarray(" + dims + ", a[i,j] * " +
      S(a) + ");\n"
      "  return (" + sp + " fold(+, 0, b[i,j])) % 100003;\n"
      "}\n";
  return {t, s % 100003};
}

using Template = Fn (*)(int, int, Rng&);
const Template kTemplates[] = {hostLoop,   genFold, transformed, matrixMapped,
                               tupled,     refcounted, product,   chain};

/// One generated program of at least `targetBytes` bytes and at least
/// `minFunctions` functions; with `leadWithProduct` the first function is
/// a matrix product.
Program generateProgram(uint64_t seed, const std::string& name,
                        const std::string& cls, size_t targetBytes,
                        int minFunctions, bool leadWithProduct) {
  Rng r(seed);
  std::string body, main = "int main() {\n";
  Program p;
  p.name = name;
  p.cls = cls;
  p.hasExpected = true;
  // Templates are drawn from a shuffled bag holding each one once, so
  // every program has the same feature mix and the seed varies only the
  // order and the parameters.
  std::vector<Template> bag;
  int k = 0;
  while (k < minFunctions || body.size() + main.size() < targetBytes) {
    if (bag.empty()) {
      bag.assign(std::begin(kTemplates), std::end(kTemplates));
      for (size_t i = bag.size() - 1; i > 0; --i)
        std::swap(bag[i], bag[size_t(r.range(0, int(i)))]);
    }
    Template t = bag.back();
    bag.pop_back();
    int x = r.range(0, 99);
    Fn f = (k == 0 && leadWithProduct ? product : t)(k, x, r);
    body += f.text + "\n";
    main += "  printInt(f" + S(k) + "(" + S(x) + "));\n";
    p.expected += S(f.value) + "\n";
    p.matmulFlops += f.flops;
    ++k;
  }
  p.source = "// generated: " + name + "\n" + body + main + "  return 0;\n}\n";
  return p;
}

/// Source sizes of the large class, in bytes.
const std::vector<size_t>& largeSizes() {
  static const std::vector<size_t> sizes = {48 << 10, 96 << 10, 144 << 10,
                                            192 << 10};
  return sizes;
}

} // namespace

std::vector<Program> makeCorpus(uint64_t seed, const std::string& exampleDir,
                                int smallCount) {
  std::vector<Program> out;
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(exampleDir))
    if (e.path().extension() == ".xc") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  if (files.empty()) throw std::runtime_error("no examples in " + exampleDir);
  for (const auto& f : files) {
    Program p;
    p.name = "example/" + f.filename().string();
    p.cls = "small";
    p.source = slurp(f.string());
    if (p.source.empty()) throw std::runtime_error("cannot read " + f.string());
    out.push_back(std::move(p));
  }
  Rng r(seed);
  for (int i = 0; i < smallCount; ++i)
    out.push_back(generateProgram(r.next(), "gen/s" + S(i), "small", 0,
                                  3, i == 0));
  for (size_t i = 0; i < largeSizes().size(); ++i)
    out.push_back(generateProgram(r.next(), "gen/l" + S(long(i)), "large",
                                  largeSizes()[i], 1, false));
  return out;
}

} // namespace perfbench
