// Table-driven cross-checks against an independent bignum implementation
// (vectors precomputed with Python's arbitrary-precision integers).

#include <gtest/gtest.h>

#include <ostream>
#include <string_view>

#include "amperebleed/crypto/biguint.hpp"

namespace amperebleed::crypto {
namespace {

struct Vector {
  const char* a;
  const char* b;
  const char* product;
  const char* quotient;   // a / b
  const char* remainder;  // a % b
};

// clang-format off
constexpr Vector kVectors[] = {
{"f149f542e935b87017346b4501eaf6141de9ea6670d3da1fc735df5ef7697fb9", "15b16e2d5cabeb959208f0ebd4950cddd9ce97b5bdf073eed1", "14724d19992021d4886eca2b663f37e706d4c938cfac45a5ba251d551788ca095f6e88478ff263c88ee85b2d96a3f2789e8c91cb42e1fa4409", "b1f72eb87ad689e", "22f8e97ceec077a88794c4fd7111850ab67819d51dc9a32bb"},
{"40e1e30c9ed0248fc9799a707e36d6004762a223c9f90c95ac96628c438183619322fed", "2607ad76ab14759da618fd7bf78a4d9f8f5ffba5f80a0a58994953", "9a379d7ced57e6090f3d7558539521418fa344c9c383189ab7a93443e96a09f92746a7d5d3e1d2dfad0b831bf991a1d6e85669680dfece82b77397951ed7", "1b4c1f1328e9080415", "1ce1419ef6014ca2dc996bd2130f57036158c1ce4f357b99e1e01e"},
{"f703c9ffe16682717c9bbfae80ca17b703be0e66d868c2cf1d4a2b12b6a20bb02edf0743175e9941", "99118dc10e774520d7e98d7c358a84c15caad14268108727563ff4bb8d", "93b233c1b5c6bf557ba9583b150ac0a3a09279ca8c10138c026b8d9046d907e29281a600cc050e02387aecc8777264710f069e8131fbf8fe135e209b9b4e3ef2bd0a00e3cd", "19d1ee3e0867008e26408cb", "50d31c83f87182433b9c3271f11fdacc713e60f437bacf8e4afd5d7872"},
{"4d6bfd8fa506bfc51025dbe58e725d57d30aad4b45038e220bc4621b9439852083d9fca716c40a33acd51e66", "33354feefadf23a7cda6c23fc86ee6443658625af0f3e0d9a54a0d7b25331f", "f7ca30bb621838b2210491398a6349db077b860a50c4dee85f0401c3fed9a5830d7b9eb85fa8c5232737fe9facd712db55330fc81f1c413732a9f1e9afff9467d48f78ca1ef46c99b005a", "1830bfc204bcbe9c79a4c564fec", "ddb0a040fdf483c6153448d7fba62b292786ac1982161741e59734b596cd2"},
{"b5c36ec124ce01e15560eaba017ad051121213ca8212f7c6f1048aa604f0d0f2aa58695187b8a518e065e3eb74113cb0", "297f1ff9fe966844aa138411eb0dde6d082ac7e1da6099d795a8486261790b2f7d", "1d768f650af91040716979d6212f307809120cad211fc5e9c306bfb0031c61611750825fb371fdcc4119fc2ea2b785c7024bb5d36e2bca991a43593e4bdb015e24116027b4f909913580d60563a21ef1f0", "46154ea8c57aa9584f5d1f8090099f0", "2ca69317a26d23f583f95a72a8d0f40ebbd96aec3da116791213ff46ee5330280"},
{"aba601ca242780aa879951fff4f991a81c63373ac55ef18658a295d4eff35b6106f1e77124ed49b137106d208ead31c813484861", "2d665a0a4adb41ce779a93a99226f446db4bc46a8f69260a228ba87442a1244e2e3761", "1e70ced482337b9e172ae15d696afae8943ccb2ec5e0e6c93d448f5b46a14948ceee9e17826e414f7d7d89ca6ee443b31eb389b37b7c2de44b8aefb1fe02c40f530b3474a562215ef6324ab49778a0f5d684a2655e43c1", "3c7e3bf43ff74d6a0a7f8e7b488451dcddb", "29efd9bce719a43ae40011f6a3a497d89694d027f7ab1e5636ba0dbc6f556cc4693b66"},
{"597ee18bc3a671c462dcec669027b9ad0a83178876e99afdd579c4c9c777b54b2790ae2cd8fba355f46871014cdead2e2791eef8458c3cdb", "78eed66a5ac86b7f7f0b9ab36679d6dedb77d6a830d103b91f95365d68577a296e7ef077e1", "2a46f8a47276cf7deb8b6bbb179c995c454aad11f43c209f7539a25b5d9ecb2158a248769501f761b50a07c4eb00ca2c55abbff131eb33222ad51fdb083fd27d3ee6a7f81f97994a1b282f513e1fb60b72472a1db09db3e31027db497b", "bd737aafebd1fb099e4762bef608adf7f6994f", "3458d873708f52a79f767e50fa5e225e128cb05ea3ac5af49764305d843cfe1237187bc56c"},
{"c7154f271fb661b44669165f4bb19d02701861c0d092e07f84eb1e73c7f3c8a0bbc9a6e0708963bb2b833e28e1ae6a00984c6df8d13d74f3dec4ac46", "d72f9ed454f1e81a644d9287a0eabff0689ae11e956a7dc4e145896fa19d466a94427d2f84ea0f", "a757ede7aa5fce0b5ab43393a9752e7319aacb80d740c4185bb621462f7622edb26d65bb97e6d228a4abd6fc83d6dfd7563ec87dc0e78159263a3f3d233bffde26f4fea5ad4cad77ce1df3bed87e9e0ce1b38e843c8d62ff8d49ae920fe7218116141a", "ecd7d111fa1faf2ce55dc172003d8373f535c50785", "b6da6b5ce8dfb2d2cabdf5757b1d748aaa598acadcb470fb7e57d4061a8cadc733aa8553c5a97b"},
};
// clang-format on

// Names each case by the leading hex digits of `a` (distinct across the
// table). Without it gtest prints the struct's raw pointer bytes, which
// change from run to run and so give the discovered tests unstable names.
void PrintTo(const Vector& v, std::ostream* os) {
  *os << std::string_view(v.a).substr(0, 16);
}

class BigUIntVectors : public ::testing::TestWithParam<Vector> {};

TEST_P(BigUIntVectors, MultiplicationMatchesPython) {
  const Vector& v = GetParam();
  const BigUInt a = BigUInt::from_hex(v.a);
  const BigUInt b = BigUInt::from_hex(v.b);
  EXPECT_EQ((a * b).to_hex(), v.product);
  EXPECT_EQ((b * a).to_hex(), v.product);  // commutativity
}

TEST_P(BigUIntVectors, DivModMatchesPython) {
  const Vector& v = GetParam();
  const BigUInt a = BigUInt::from_hex(v.a);
  const BigUInt b = BigUInt::from_hex(v.b);
  const auto [q, r] = a.divmod(b);
  EXPECT_EQ(q.to_hex(), v.quotient);
  EXPECT_EQ(r.to_hex(), v.remainder);
  EXPECT_EQ(a.mod(b).to_hex(), v.remainder);
}

TEST_P(BigUIntVectors, ReconstructionIdentity) {
  const Vector& v = GetParam();
  const BigUInt a = BigUInt::from_hex(v.a);
  const BigUInt b = BigUInt::from_hex(v.b);
  EXPECT_EQ(BigUInt::from_hex(v.quotient) * b + BigUInt::from_hex(v.remainder),
            a);
  // (a*b) / b == a exactly.
  EXPECT_EQ(BigUInt::from_hex(v.product).divmod(b).quotient, a);
}

TEST_P(BigUIntVectors, BytesAndLimbsRoundTrip) {
  const Vector& v = GetParam();
  const BigUInt a = BigUInt::from_hex(v.a);
  EXPECT_EQ(BigUInt::from_bytes_be(a.to_bytes_be()), a);
  EXPECT_EQ(BigUInt::from_limbs(a.limbs()), a);
}

INSTANTIATE_TEST_SUITE_P(PythonVectors, BigUIntVectors,
                         ::testing::ValuesIn(kVectors));

}  // namespace
}  // namespace amperebleed::crypto
