//! Tenant identity and per-operation context for the multi-tenant
//! swap fabric.
//!
//! A far-memory deployment serves many independent workloads from one
//! shared compressed pool, so every swap-path operation needs to say
//! *whose* page it moves: quotas, accounting, admission control, and
//! per-tenant SLO reporting all hang off that identity. [`TenantId`]
//! names one workload, and [`OpContext`] bundles the identity with the
//! placement hint that travels alongside each operation through the
//! `xfm_sfm::SwapPlane` seam.
//!
//! The context is deliberately tiny (`Copy`, four bytes) so threading
//! it through the hot path costs registers, not allocations.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::plane::PlacementClass;

/// Stable identity of one tenant (workload) sharing the swap fabric.
///
/// Tenant 0 is reserved as [`TenantId::SYSTEM`]: the implicit owner of
/// every operation issued through the context-free swap ops, and
/// of internal traffic (compaction, rebalancing) that no user tenant
/// should be billed for. Telemetry packs the id into an 8-bit wire
/// code, so deployments are limited to 255 user tenants per process —
/// far memory is shared by workload class, not by end user, so this is
/// not a practical bound.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TenantId(u16);

impl TenantId {
    /// The reserved system tenant: context-free callers and internal
    /// plane traffic account here.
    pub const SYSTEM: Self = Self(0);

    /// Builds a tenant id from its raw index.
    #[must_use]
    pub const fn new(id: u16) -> Self {
        Self(id)
    }

    /// The raw tenant index.
    #[must_use]
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// Whether this is the reserved system tenant.
    #[must_use]
    pub const fn is_system(self) -> bool {
        self.0 == 0
    }

    /// Stable 8-bit wire code for packing into telemetry words.
    ///
    /// Ids above 255 saturate to 255 on the wire; accounting stays
    /// exact (it keys on the full id), only packed lifecycle events
    /// alias in that regime.
    #[must_use]
    pub const fn code(self) -> u8 {
        if self.0 > u8::MAX as u16 {
            u8::MAX
        } else {
            self.0 as u8
        }
    }

    /// Inverse of [`TenantId::code`] for unpacking telemetry words.
    #[must_use]
    pub const fn from_code(code: u8) -> Self {
        Self(code as u16)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Per-operation context carried through the swap path.
///
/// Bundles the tenant to bill with the placement class the caller would
/// like the page to land on (a *hint* — tiering policy may override
/// it).
///
/// # Examples
///
/// ```
/// use xfm_types::{OpContext, PlacementClass, TenantId};
///
/// let ctx = OpContext::for_tenant(TenantId::new(3));
/// assert_eq!(ctx.tenant, TenantId::new(3));
/// assert_eq!(ctx.class, PlacementClass::CompressedLocal);
///
/// // The context-free swap ops run as the system tenant.
/// assert!(OpContext::SYSTEM.tenant.is_system());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpContext {
    /// Tenant to account this operation to.
    pub tenant: TenantId,
    /// Preferred placement class (tiering start hint).
    pub class: PlacementClass,
}

impl OpContext {
    /// The implicit context of every context-free operation: system
    /// tenant, hottest placement class.
    pub const SYSTEM: Self = Self::for_tenant(TenantId::SYSTEM);

    /// A context billing `tenant` with default placement.
    #[must_use]
    pub const fn for_tenant(tenant: TenantId) -> Self {
        Self {
            tenant,
            class: PlacementClass::CompressedLocal,
        }
    }

    /// Returns `self` with the placement hint replaced.
    #[must_use]
    pub const fn with_class(mut self, class: PlacementClass) -> Self {
        self.class = class;
        self
    }
}

impl Default for OpContext {
    fn default() -> Self {
        Self::SYSTEM
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_id_round_trips() {
        let t = TenantId::new(7);
        assert_eq!(t.as_u16(), 7);
        assert_eq!(t.to_string(), "tenant7");
        assert_eq!(TenantId::from_code(t.code()), t);
        assert!(!t.is_system());
        assert!(TenantId::SYSTEM.is_system());
    }

    #[test]
    fn wire_code_saturates_above_u8() {
        assert_eq!(TenantId::new(255).code(), 255);
        assert_eq!(TenantId::new(256).code(), 255);
        assert_eq!(TenantId::new(u16::MAX).code(), 255);
    }

    #[test]
    fn system_context_is_default() {
        assert_eq!(OpContext::default(), OpContext::SYSTEM);
        assert!(OpContext::SYSTEM.tenant.is_system());
        assert_eq!(OpContext::SYSTEM.class, PlacementClass::CompressedLocal);
    }

    #[test]
    fn builders_replace_fields() {
        let ctx = OpContext::for_tenant(TenantId::new(2)).with_class(PlacementClass::Ssd);
        assert_eq!(ctx.tenant, TenantId::new(2));
        assert_eq!(ctx.class, PlacementClass::Ssd);
    }
}
