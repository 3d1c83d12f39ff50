//! Configuration of a tiered cache hierarchy.
//!
//! A [`TierTopology`] describes up to [`MAX_TIERS`] cache levels, ordered
//! hot (level 0) to cold, each with its own set-associative geometry,
//! replacement policy, device service-time model and station parallelism,
//! plus the three inter-tier data-movement policies (placement, promotion,
//! demotion). The type is `Copy` and `const`-constructible so simulator
//! configurations that embed it stay cheap to pass around the scenario
//! sweep machinery, exactly like the flat [`CacheConfig`].

use serde::{Deserialize, Serialize};

use lbica_cache::{CacheConfig, WritePolicy};
use lbica_storage::device::SsdConfig;

/// Upper bound on the number of cache levels a topology can describe. Four
/// covers every hierarchy the paper's generalization contemplates (NVMe →
/// SATA → QLC → disk is already a stretch); the fixed bound is what keeps
/// [`TierTopology`] `Copy`.
pub const MAX_TIERS: usize = 4;

/// Where a read-miss fill is installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Install fills in the hot tier (level 0) — the classic inclusive-of-
    /// nothing, exclusive hierarchy default.
    #[default]
    HotTier,
    /// Install fills in the coldest tier; blocks earn their way up via
    /// promotion-on-hit. Shields the hot tier from scan pollution.
    ColdTier,
}

/// What happens when a request hits below the hot tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PromotionPolicy {
    /// Move the block to the hot tier on every hit (demoting a victim down
    /// the chain if the hot tier is full).
    #[default]
    OnHit,
    /// Serve the hit in place; blocks never move up.
    Never,
}

/// Whether a block may be resident at several levels at once.
///
/// The hierarchy's fourth data-movement policy, orthogonal to placement /
/// promotion / demotion: it decides what a *promotion* leaves behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum InclusionPolicy {
    /// A block resides in exactly one level: promotion *moves* it up,
    /// invalidating the lower copy. The default, and the only mode PR 4
    /// shipped.
    #[default]
    Exclusive,
    /// Promotion *copies* the block up, leaving the lower-level line
    /// resident, so a hot-tier eviction of a recently promoted block is
    /// free (the warm copy still serves). The cost is the inclusive
    /// hierarchy's classic back-invalidation: when the lower-level copy is
    /// evicted, any copies above it are invalidated so no level ever caches
    /// a block its backing tier has dropped. Fills still land only at the
    /// placement level (non-strict inclusion), so lower levels fill via
    /// demotions and promoted leftovers rather than being mirrored
    /// eagerly.
    Inclusive,
}

/// What happens to a block evicted from a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DemotionPolicy {
    /// Victims (clean and dirty) cascade into the next tier down; victims
    /// of the last tier behave like the flat cache (dirty → write back to
    /// the disk subsystem, clean → silently dropped).
    #[default]
    Cascade,
    /// Only dirty victims cascade; clean victims are dropped immediately.
    DirtyCascade,
    /// No inter-tier demotion: every tier evicts like the flat cache.
    None,
}

/// One level of the hierarchy: cache geometry + device + service slots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierLevelSpec {
    /// Set-associative geometry and replacement policy of the level.
    pub cache: CacheConfig,
    /// Service-time model of the level's SSD.
    pub device: SsdConfig,
    /// Number of requests the level's device services concurrently.
    pub parallelism: usize,
}

impl TierLevelSpec {
    /// Creates a level description.
    pub const fn new(cache: CacheConfig, device: SsdConfig, parallelism: usize) -> Self {
        TierLevelSpec { cache, device, parallelism }
    }

    /// The level's capacity in cache blocks.
    pub const fn capacity_blocks(&self) -> usize {
        self.cache.capacity_blocks()
    }

    /// Returns a copy with the level's initial write policy replaced
    /// (builder style) — the per-tier write-policy scenario axis. The
    /// policy governs the blocks this level owns; see
    /// [`crate::TieredCacheModule::level_policy`].
    pub const fn with_write_policy(mut self, policy: WritePolicy) -> Self {
        self.cache.initial_policy = policy;
        self
    }

    /// The write policy the level starts a run with.
    pub const fn write_policy(&self) -> WritePolicy {
        self.cache.initial_policy
    }
}

/// An ordered (hot → cold) stack of cache levels plus the inter-tier
/// data-movement policies.
///
/// # Example
///
/// Build a two-level hierarchy, make the warm tier write-through and the
/// stack inclusive, and inspect the result:
///
/// ```
/// use lbica_cache::{CacheConfig, ReplacementKind, WritePolicy};
/// use lbica_storage::device::SsdConfig;
/// use lbica_tier::{InclusionPolicy, TierLevelSpec, TierTopology};
///
/// let geometry = CacheConfig {
///     num_sets: 64,
///     associativity: 4,
///     replacement: ReplacementKind::Lru,
///     initial_policy: WritePolicy::WriteBack,
/// };
/// let hot = TierLevelSpec::new(geometry, SsdConfig::samsung_863a(), 1);
/// let warm = TierLevelSpec::new(geometry, SsdConfig::qlc_capacity(), 2)
///     .with_write_policy(WritePolicy::WriteThrough);
///
/// let topology = TierTopology::two_level(hot, warm)
///     .with_inclusion(InclusionPolicy::Inclusive);
///
/// assert_eq!(topology.len(), 2);
/// assert_eq!(topology.level(0).write_policy(), WritePolicy::WriteBack);
/// assert_eq!(topology.level(1).write_policy(), WritePolicy::WriteThrough);
/// assert_eq!(topology.inclusion, InclusionPolicy::Inclusive);
/// assert_eq!(topology.capacity_blocks(), 2 * 64 * 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TierTopology {
    levels: [Option<TierLevelSpec>; MAX_TIERS],
    /// Where read-miss fills land.
    pub placement: PlacementPolicy,
    /// Whether lower-tier hits move the block up.
    pub promotion: PromotionPolicy,
    /// What happens to evicted blocks.
    pub demotion: DemotionPolicy,
    /// Whether promotion moves or copies blocks (exclusive vs inclusive
    /// hierarchy).
    pub inclusion: InclusionPolicy,
}

impl TierTopology {
    /// A single-level topology — semantically identical to the flat cache.
    pub const fn single(level: TierLevelSpec) -> Self {
        TierTopology {
            levels: [Some(level), None, None, None],
            placement: PlacementPolicy::HotTier,
            promotion: PromotionPolicy::OnHit,
            demotion: DemotionPolicy::Cascade,
            inclusion: InclusionPolicy::Exclusive,
        }
    }

    /// A two-level topology (hot over warm) with the default policies.
    pub const fn two_level(hot: TierLevelSpec, warm: TierLevelSpec) -> Self {
        TierTopology {
            levels: [Some(hot), Some(warm), None, None],
            placement: PlacementPolicy::HotTier,
            promotion: PromotionPolicy::OnHit,
            demotion: DemotionPolicy::Cascade,
            inclusion: InclusionPolicy::Exclusive,
        }
    }

    /// A three-level topology with the default policies.
    pub const fn three_level(hot: TierLevelSpec, warm: TierLevelSpec, cold: TierLevelSpec) -> Self {
        TierTopology {
            levels: [Some(hot), Some(warm), Some(cold), None],
            placement: PlacementPolicy::HotTier,
            promotion: PromotionPolicy::OnHit,
            demotion: DemotionPolicy::Cascade,
            inclusion: InclusionPolicy::Exclusive,
        }
    }

    /// Returns a copy with `level` appended (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the topology already holds [`MAX_TIERS`] levels.
    pub const fn push_level(mut self, level: TierLevelSpec) -> Self {
        let mut i = 0;
        while i < MAX_TIERS {
            if self.levels[i].is_none() {
                self.levels[i] = Some(level);
                return self;
            }
            i += 1;
        }
        panic!("a tier topology holds at most MAX_TIERS levels");
    }

    /// Returns a copy with the placement policy replaced (builder style).
    pub const fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Returns a copy with the promotion policy replaced (builder style).
    pub const fn with_promotion(mut self, promotion: PromotionPolicy) -> Self {
        self.promotion = promotion;
        self
    }

    /// Returns a copy with the demotion policy replaced (builder style).
    pub const fn with_demotion(mut self, demotion: DemotionPolicy) -> Self {
        self.demotion = demotion;
        self
    }

    /// Returns a copy with the inclusion policy replaced (builder style).
    pub const fn with_inclusion(mut self, inclusion: InclusionPolicy) -> Self {
        self.inclusion = inclusion;
        self
    }

    /// Returns a copy with level `index`'s initial write policy replaced
    /// (builder style) — the per-tier write-policy scenario axis.
    ///
    /// # Panics
    ///
    /// Panics if `index` is at or past [`TierTopology::len`].
    pub const fn with_level_policy(mut self, index: usize, policy: WritePolicy) -> Self {
        match self.levels[index] {
            Some(level) => self.levels[index] = Some(level.with_write_policy(policy)),
            None => panic!("tier level index out of bounds"),
        }
        self
    }

    /// Number of levels in the topology.
    pub const fn len(&self) -> usize {
        let mut n = 0;
        while n < MAX_TIERS {
            if self.levels[n].is_none() {
                return n;
            }
            n += 1;
        }
        MAX_TIERS
    }

    /// Whether the topology describes no levels at all.
    pub const fn is_empty(&self) -> bool {
        self.levels[0].is_none()
    }

    /// The specification of level `index` (0 = hot tier).
    ///
    /// # Panics
    ///
    /// Panics if `index` is at or past [`TierTopology::len`].
    pub const fn level(&self, index: usize) -> &TierLevelSpec {
        match &self.levels[index] {
            Some(level) => level,
            None => panic!("tier level index in bounds"),
        }
    }

    /// Iterates the levels, hot tier first.
    pub fn levels(&self) -> impl Iterator<Item = &TierLevelSpec> {
        self.levels.iter().filter_map(|l| l.as_ref())
    }

    /// Total capacity across every level, in cache blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.levels().map(|l| l.capacity_blocks()).sum()
    }

    /// The index fills are installed at under the current placement policy.
    pub const fn placement_level(&self) -> usize {
        match self.placement {
            PlacementPolicy::HotTier => 0,
            PlacementPolicy::ColdTier => self.len() - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbica_cache::{ReplacementKind, WritePolicy};

    fn level(num_sets: usize) -> TierLevelSpec {
        TierLevelSpec::new(
            CacheConfig {
                num_sets,
                associativity: 2,
                replacement: ReplacementKind::Lru,
                initial_policy: WritePolicy::WriteBack,
            },
            SsdConfig::samsung_863a(),
            1,
        )
    }

    #[test]
    fn constructors_count_levels() {
        assert_eq!(TierTopology::single(level(8)).len(), 1);
        assert_eq!(TierTopology::two_level(level(8), level(16)).len(), 2);
        assert_eq!(TierTopology::three_level(level(8), level(16), level(32)).len(), 3);
        assert!(!TierTopology::single(level(8)).is_empty());
    }

    #[test]
    fn push_level_appends_in_order() {
        let t = TierTopology::single(level(8)).push_level(level(16)).push_level(level(32));
        assert_eq!(t.len(), 3);
        assert_eq!(t.level(0).cache.num_sets, 8);
        assert_eq!(t.level(2).cache.num_sets, 32);
        assert_eq!(t.capacity_blocks(), (8 + 16 + 32) * 2);
    }

    #[test]
    #[should_panic(expected = "MAX_TIERS")]
    fn push_past_max_tiers_panics() {
        let _ = TierTopology::single(level(8))
            .push_level(level(8))
            .push_level(level(8))
            .push_level(level(8))
            .push_level(level(8));
    }

    #[test]
    fn placement_level_follows_policy() {
        let t = TierTopology::two_level(level(8), level(16));
        assert_eq!(t.placement_level(), 0);
        assert_eq!(t.with_placement(PlacementPolicy::ColdTier).placement_level(), 1);
    }

    #[test]
    fn policy_builders_replace_fields() {
        let t = TierTopology::two_level(level(8), level(16))
            .with_promotion(PromotionPolicy::Never)
            .with_demotion(DemotionPolicy::DirtyCascade);
        assert_eq!(t.promotion, PromotionPolicy::Never);
        assert_eq!(t.demotion, DemotionPolicy::DirtyCascade);
        assert_eq!(t.placement, PlacementPolicy::HotTier);
    }

    #[test]
    fn levels_iterator_visits_hot_first() {
        let t = TierTopology::two_level(level(8), level(16));
        let sets: Vec<usize> = t.levels().map(|l| l.cache.num_sets).collect();
        assert_eq!(sets, vec![8, 16]);
    }

    #[test]
    fn inclusion_defaults_to_exclusive_and_is_replaceable() {
        let t = TierTopology::two_level(level(8), level(16));
        assert_eq!(t.inclusion, InclusionPolicy::Exclusive);
        assert_eq!(
            t.with_inclusion(InclusionPolicy::Inclusive).inclusion,
            InclusionPolicy::Inclusive
        );
        assert_eq!(InclusionPolicy::default(), InclusionPolicy::Exclusive);
    }

    #[test]
    fn per_level_write_policies_ride_on_the_level_specs() {
        let t = TierTopology::two_level(level(8), level(16))
            .with_level_policy(1, WritePolicy::WriteThrough);
        assert_eq!(t.level(0).write_policy(), WritePolicy::WriteBack);
        assert_eq!(t.level(1).write_policy(), WritePolicy::WriteThrough);
        let spec = level(8).with_write_policy(WritePolicy::WriteOnly);
        assert_eq!(spec.write_policy(), WritePolicy::WriteOnly);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn with_level_policy_rejects_missing_levels() {
        let _ = TierTopology::single(level(8)).with_level_policy(1, WritePolicy::ReadOnly);
    }
}
