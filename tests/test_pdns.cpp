#include "pdns/replication.h"
#include "pdns/store.h"

#include <gtest/gtest.h>

#include <vector>

namespace cbwt::pdns {
namespace {

net::IpAddress ip(std::uint32_t v) { return net::IpAddress::v4(v); }

TEST(Store, ObserveCreatesAndExtendsWindows) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("a.t.com", "t.com", ip(1), 30);
  store.observe("a.t.com", "t.com", ip(1), 20);
  EXPECT_EQ(store.record_count(), 1U);
  const auto records = store.forward("a.t.com");
  ASSERT_EQ(records.size(), 1U);
  EXPECT_EQ(records[0]->first_seen, 10);
  EXPECT_EQ(records[0]->last_seen, 30);
  EXPECT_EQ(records[0]->observations, 3U);
}

TEST(Store, SeparateRecordsPerIp) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("a.t.com", "t.com", ip(2), 10);
  EXPECT_EQ(store.record_count(), 2U);
  EXPECT_EQ(store.forward("a.t.com").size(), 2U);
}

TEST(Store, ReverseLookup) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("b.u.com", "u.com", ip(1), 12);
  const auto records = store.reverse(ip(1));
  ASSERT_EQ(records.size(), 2U);
  EXPECT_TRUE(store.reverse(ip(9)).empty());
}

TEST(Store, ValidAtRespectsWindow) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("a.t.com", "t.com", ip(1), 20);
  EXPECT_TRUE(store.valid_at("a.t.com", ip(1), 10));
  EXPECT_TRUE(store.valid_at("a.t.com", ip(1), 15));
  EXPECT_TRUE(store.valid_at("a.t.com", ip(1), 20));
  EXPECT_FALSE(store.valid_at("a.t.com", ip(1), 9));
  EXPECT_FALSE(store.valid_at("a.t.com", ip(1), 21));
  EXPECT_FALSE(store.valid_at("a.t.com", ip(2), 15));
  EXPECT_FALSE(store.valid_at("zzz", ip(1), 15));
}

TEST(Store, RegistrableCountPerIp) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 1);
  store.observe("b.t.com", "t.com", ip(1), 1);  // same registrable
  store.observe("c.u.com", "u.com", ip(1), 1);
  EXPECT_EQ(store.registrable_count(ip(1)), 2U);
  EXPECT_EQ(store.registrable_count(ip(9)), 0U);
  EXPECT_EQ(store.observations_of(ip(1)), 3U);
}

TEST(Store, AllIpsSortedUnique) {
  Store store;
  store.observe("a.t.com", "t.com", ip(5), 1);
  store.observe("b.t.com", "t.com", ip(3), 1);
  store.observe("c.t.com", "t.com", ip(5), 1);
  const auto ips = store.all_ips();
  ASSERT_EQ(ips.size(), 2U);
  EXPECT_EQ(ips[0], ip(3));
  EXPECT_EQ(ips[1], ip(5));
}

TEST(Store, IpsOfRegistrable) {
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 1);
  store.observe("b.t.com", "t.com", ip(2), 1);
  store.observe("x.u.com", "u.com", ip(3), 1);
  const auto ips = store.ips_of_registrable("t.com");
  ASSERT_EQ(ips.size(), 2U);
  EXPECT_TRUE(store.ips_of_registrable("nope").empty());
}

TEST(Store, IpsOfRegistrableAtRespectsWindow) {
  // The production join list of an ISP-day snapshot: every IP whose
  // (domain, IP) validity window covers the day, windows inclusive.
  Store store;
  store.observe("a.t.com", "t.com", ip(1), 10);
  store.observe("a.t.com", "t.com", ip(1), 20);
  store.observe("b.t.com", "t.com", ip(2), 50);
  using Ips = std::vector<net::IpAddress>;
  EXPECT_EQ(store.ips_of_registrable_at("t.com", 15), Ips{ip(1)});
  EXPECT_EQ(store.ips_of_registrable_at("t.com", 50), Ips{ip(2)});
  EXPECT_EQ(store.ips_of_registrable_at("t.com", 10), Ips{ip(1)});
  EXPECT_EQ(store.ips_of_registrable_at("t.com", 20), Ips{ip(1)});
  EXPECT_TRUE(store.ips_of_registrable_at("t.com", 9).empty());
  EXPECT_TRUE(store.ips_of_registrable_at("t.com", 21).empty());
  EXPECT_TRUE(store.ips_of_registrable_at("nope", 15).empty());
  // Ignoring windows, the registrable spans both IPs.
  EXPECT_EQ(store.ips_of_registrable("t.com").size(), 2U);
}

class ReplicationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world::WorldConfig config;
    config.seed = 808;
    config.scale = 0.01;
    config.publishers = 300;
    world_ = new world::World(world::build_world(config));
    resolver_ = new dns::Resolver(*world_);
  }
  static void TearDownTestSuite() {
    delete resolver_;
    delete world_;
    resolver_ = nullptr;
    world_ = nullptr;
  }
  static world::World* world_;
  static dns::Resolver* resolver_;
};

world::World* ReplicationTest::world_ = nullptr;
dns::Resolver* ReplicationTest::resolver_ = nullptr;

TEST_F(ReplicationTest, PopulatesStoreWithTrackingDomains) {
  Store store;
  ReplicationConfig config;
  config.window_end = 30;
  config.queries_per_sample = 500;
  config.stale_pairs = 0;
  util::Rng rng(1);
  replicate_background(store, *resolver_, config, rng);
  EXPECT_GT(store.record_count(), 100U);
  // Every recorded fqdn is a real tracking domain of the world.
  std::size_t checked = 0;
  for (const auto& ip_addr : store.all_ips()) {
    for (const auto* record : store.reverse(ip_addr)) {
      const auto* domain = world_->find_domain(record->fqdn);
      ASSERT_NE(domain, nullptr) << record->fqdn;
      EXPECT_NE(world_->org(domain->org).role, world::OrgRole::CleanService);
      if (++checked > 200) return;
    }
  }
}

TEST_F(ReplicationTest, WindowsStayInsideReplicationWindow) {
  Store store;
  ReplicationConfig config;
  config.window_start = 5;
  config.window_end = 25;
  config.queries_per_sample = 200;
  config.stale_pairs = 0;
  util::Rng rng(2);
  replicate_background(store, *resolver_, config, rng);
  for (const auto& ip_addr : store.all_ips()) {
    for (const auto* record : store.reverse(ip_addr)) {
      EXPECT_GE(record->first_seen, 5);
      EXPECT_LE(record->last_seen, 25);
    }
  }
}

TEST_F(ReplicationTest, StalePairsLiveBeforeTheWindow) {
  Store store;
  ReplicationConfig config;
  config.window_end = 10;
  config.queries_per_sample = 50;
  config.stale_pairs = 40;
  util::Rng rng(3);
  replicate_background(store, *resolver_, config, rng);
  std::size_t stale = 0;
  for (const auto& ip_addr : store.all_ips()) {
    for (const auto* record : store.reverse(ip_addr)) {
      if (record->last_seen < 0) ++stale;
    }
  }
  EXPECT_GT(stale, 0U);
  // Validity-window filtering removes them for any in-window day:
  for (const auto& ip_addr : store.all_ips()) {
    for (const auto* record : store.reverse(ip_addr)) {
      if (record->last_seen < 0) {
        EXPECT_FALSE(store.valid_at(record->fqdn, record->ip, 5));
      }
    }
  }
}

TEST_F(ReplicationTest, FindsServersAcrossTheWholeFootprint) {
  // A worldwide background population should observe servers on several
  // continents — including ones a Europe-heavy user base would miss.
  Store store;
  ReplicationConfig config;
  config.window_end = 60;
  config.queries_per_sample = 2000;
  config.stale_pairs = 0;
  util::Rng rng(4);
  replicate_background(store, *resolver_, config, rng);
  std::set<std::string> continents;
  for (const auto& ip_addr : store.all_ips()) {
    const auto country = world_->true_country_of(ip_addr);
    if (country.empty()) continue;
    continents.insert(std::string(geo::to_string(geo::find_country(country)->continent)));
  }
  EXPECT_GE(continents.size(), 3U);
}

}  // namespace
}  // namespace cbwt::pdns
